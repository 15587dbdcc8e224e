//===- analysis/RuleRegistry.cpp - The analysis rule table ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleRegistry.h"

namespace ev {

std::optional<Diagnostic> RuleFilter::diagnose(RuleRef Rule,
                                               std::string Message,
                                               std::string Hint,
                                               DiagnosticLocation At) const {
  if (Rule->DefaultSev < MinSeverity)
    return std::nullopt;
  for (const std::string &Off : Disabled)
    if (Rule->Id == Off || Rule->Name == Off)
      return std::nullopt;
  Diagnostic D;
  D.Id = Rule->Id;
  D.Sev = Rule->DefaultSev;
  D.Message = std::move(Message);
  D.Rule = Rule->Name;
  D.Hint = std::move(Hint);
  D.Line = At.Line;
  D.Column = At.Column;
  D.Node = At.Node;
  return D;
}

const RuleInfo *findRule(std::string_view IdOrName) {
  for (const RuleInfo &Rule : AnalysisRules)
    if (Rule.Id == IdOrName || Rule.Name == IdOrName)
      return &Rule;
  return nullptr;
}

std::string renderRuleList() {
  std::string Out;
  for (const RuleInfo &Rule : AnalysisRules) {
    Out += std::string(Rule.Id) + "  " +
           std::string(severityName(Rule.DefaultSev)) + "  " +
           std::string(Rule.Name) + "\n    " +
           std::string(Rule.Description) + "\n";
  }
  return Out;
}

} // namespace ev
