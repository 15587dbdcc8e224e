//===- analysis/Diagnostic.cpp - IDE-style diagnostics --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostic.h"

#include <algorithm>

namespace ev {

std::string_view severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Info:
    return "info";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

bool parseSeverity(std::string_view Name, Severity &Out) {
  if (Name == "note")
    Out = Severity::Note;
  else if (Name == "info")
    Out = Severity::Info;
  else if (Name == "warning")
    Out = Severity::Warning;
  else if (Name == "error")
    Out = Severity::Error;
  else
    return false;
  return true;
}

bool DiagnosticSet::add(Diagnostic D) {
  if (Diags.size() >= Max) {
    ++DroppedBy[static_cast<size_t>(D.Sev)];
    return false;
  }
  Diags.push_back(std::move(D));
  return true;
}

size_t DiagnosticSet::count(Severity Sev) const {
  size_t N = DroppedBy[static_cast<size_t>(Sev)];
  for (const Diagnostic &D : Diags)
    N += D.Sev == Sev;
  return N;
}

size_t DiagnosticSet::dropped() const {
  size_t N = 0;
  for (size_t Count : DroppedBy)
    N += Count;
  return N;
}

void DiagnosticSet::sortBySource() {
  std::stable_sort(Diags.begin(), Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Line != B.Line)
                       return A.Line < B.Line;
                     if (A.Column != B.Column)
                       return A.Column < B.Column;
                     return A.Id < B.Id;
                   });
}

std::string renderDiagnostic(const Diagnostic &D, std::string_view Subject) {
  std::string Out(Subject);
  if (D.Line > 0) {
    Out += ":" + std::to_string(D.Line);
    if (D.Column > 0)
      Out += ":" + std::to_string(D.Column);
  }
  Out += ": ";
  Out += severityName(D.Sev);
  Out += ": ";
  Out += D.Message;
  if (D.Node != InvalidNode)
    Out += " (node " + std::to_string(D.Node) + ")";
  Out += " [";
  Out += D.Id;
  Out += "]";
  if (!D.Hint.empty())
    Out += "\n  hint: " + D.Hint;
  return Out;
}

} // namespace ev
