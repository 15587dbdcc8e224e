//===- analysis/RuleRegistry.cpp - Unified analysis rule registry ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleRegistry.h"

#include "analysis/ProfileLint.h"
#include "analysis/Regression.h"
#include "analysis/Sema.h"

namespace ev {

bool RuleFilter::keeps(Severity Sev, std::string_view Id,
                       std::string_view Name) const {
  if (Sev < MinSeverity)
    return false;
  for (const std::string &Rule : Disabled)
    if (Id == Rule || Name == Rule)
      return false;
  return true;
}

std::string_view ruleCategoryName(RuleCategory Category) {
  switch (Category) {
  case RuleCategory::Query:
    return "query";
  case RuleCategory::Lint:
    return "lint";
  case RuleCategory::Regression:
    return "regression";
  }
  return "unknown";
}

const std::vector<RuleInfo> &allRules() {
  static const std::vector<RuleInfo> Rules = [] {
    std::vector<RuleInfo> Out;
    for (const SemaCheckInfo &C : semaChecks())
      Out.push_back({C.Id, C.Name, C.DefaultSev, C.Description,
                     RuleCategory::Query});
    for (const LintRuleInfo &R : lintRules())
      Out.push_back(
          {R.Id, R.Name, R.DefaultSev, R.Description, RuleCategory::Lint});
    for (const RegressionRuleInfo &R : regressionRules())
      Out.push_back({R.Id, R.Name, R.DefaultSev, R.Description,
                     RuleCategory::Regression});
    return Out;
  }();
  return Rules;
}

const RuleInfo *findRule(std::string_view IdOrName) {
  for (const RuleInfo &Rule : allRules())
    if (Rule.Id == IdOrName || Rule.Name == IdOrName)
      return &Rule;
  return nullptr;
}

std::string renderRuleList() {
  std::string Out;
  for (const RuleInfo &Rule : allRules()) {
    Out += std::string(Rule.Id) + "  " +
           std::string(severityName(Rule.DefaultSev)) + "  " +
           std::string(Rule.Name) + "\n    " +
           std::string(Rule.Description) + "\n";
  }
  return Out;
}

} // namespace ev
