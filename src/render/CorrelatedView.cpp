//===- render/CorrelatedView.cpp - Correlated multi-pane flame graphs -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/CorrelatedView.h"

#include "profile/ProfileBuilder.h"

#include "support/Strings.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace ev {

CorrelatedView::CorrelatedView(const Profile &P, std::string_view Kind)
    : P(&P) {
  // Find the kind's interned id without mutating the profile: scan groups.
  for (size_t I = 0; I < P.groups().size(); ++I) {
    const ContextGroup &G = P.groups()[I];
    if (P.text(G.Kind) != Kind)
      continue;
    if (Roles == 0)
      Roles = G.Contexts.size();
    assert(Roles == G.Contexts.size() &&
           "groups of one kind must have a uniform role count");
    KindId = G.Kind;
    AllGroups.push_back(I);
  }
  refilter();
}

void CorrelatedView::refilter() {
  ActiveGroups.clear();
  for (size_t Idx : AllGroups) {
    const ContextGroup &G = P->groups()[Idx];
    bool Matches = true;
    for (size_t R = 0; R < Selection.size() && R < G.Contexts.size(); ++R)
      if (G.Contexts[R] != Selection[R])
        Matches = false;
    if (Matches)
      ActiveGroups.push_back(Idx);
  }
}

bool CorrelatedView::select(size_t Role, NodeId Context) {
  if (Role > Selection.size() || Role >= Roles)
    return false; // Panes must be selected left to right.
  // Validate the context appears in that pane's population.
  bool Present = false;
  for (auto &[Node, Value] : paneContexts(Role))
    if (Node == Context)
      Present = true;
  if (!Present)
    return false;
  Selection.resize(Role);
  Selection.push_back(Context);
  refilter();
  return true;
}

void CorrelatedView::clearFrom(size_t Role) {
  if (Role < Selection.size()) {
    Selection.resize(Role);
    refilter();
  }
}

std::vector<std::pair<NodeId, double>>
CorrelatedView::paneContexts(size_t Role) const {
  std::vector<std::pair<NodeId, double>> Out;
  if (Role >= Roles || Role > Selection.size())
    return Out;
  std::map<NodeId, double> Sum;
  for (size_t Idx : ActiveGroups) {
    const ContextGroup &G = P->groups()[Idx];
    Sum[G.Contexts[Role]] += G.Value;
  }
  Out.assign(Sum.begin(), Sum.end());
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  return Out;
}

Profile CorrelatedView::paneProfile(size_t Role) const {
  ProfileBuilder Out("pane " + std::to_string(Role));
  if (Role >= Roles || Role > Selection.size())
    return Out.take();
  const MetricDescriptor &M =
      P->metrics()[ActiveGroups.empty()
                       ? 0
                       : P->groups()[ActiveGroups.front()].Metric];
  MetricId Value = Out.addMetric(M.Name, M.Unit, M.Aggregation);

  for (size_t Idx : ActiveGroups) {
    const ContextGroup &G = P->groups()[Idx];
    NodeId Context = G.Contexts[Role];
    // Materialize the context's full call path in the pane tree.
    std::vector<NodeId> Path = P->pathTo(Context);
    NodeId Cur = Out.root();
    for (size_t Step = 1; Step < Path.size(); ++Step)
      Cur = Out.child(Cur, Out.importFrame(*P, P->frameOf(Path[Step])));
    Out.addValue(Cur, Value, G.Value);
  }
  return Out.take();
}

std::string CorrelatedView::renderText() const {
  std::string Out;
  Out += "correlated view: " + std::string(P->text(KindId)) + ", " +
         std::to_string(ActiveGroups.size()) + " group(s) active\n";
  for (size_t Role = 0; Role < Roles; ++Role) {
    Out += "pane " + std::to_string(Role);
    if (Role < Selection.size()) {
      Out += " [selected: " + std::string(P->nameOf(Selection[Role])) + "]";
    }
    Out += ":\n";
    if (Role > Selection.size()) {
      Out += "  (select pane " + std::to_string(Role - 1) +
             " to populate)\n";
      continue;
    }
    for (auto &[Node, Value] : paneContexts(Role)) {
      const Frame &F = P->frameOf(Node);
      Out += "  " + std::string(P->nameOf(Node));
      if (F.Loc.hasSourceMapping())
        Out += " @" + std::string(P->text(F.Loc.File)) + ":" +
               std::to_string(F.Loc.Line);
      Out += "  value=" + formatDouble(Value, 0) + "\n";
    }
  }
  return Out;
}

} // namespace ev
