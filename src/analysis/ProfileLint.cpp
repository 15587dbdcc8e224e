//===- analysis/ProfileLint.cpp - Profile lint engine ---------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProfileLint.h"

#include "analysis/MetricEngine.h"
#include "proto/EvProfStream.h"

#include <algorithm>
#include <cmath>

namespace ev {

void ProfileLinter::emit(DiagnosticSet &Out, RuleRef Rule,
                         std::string Message, std::string Hint,
                         NodeId Node) const {
  if (std::optional<Diagnostic> D = Opts.Filter.diagnose(
          Rule, std::move(Message), std::move(Hint), {.Node = Node}))
    Out.add(std::move(*D));
}

void ProfileLinter::lintProfile(const Profile &P, DiagnosticSet &Out) const {
  size_t Total = P.nodeCount();
  NodeId Visit = static_cast<NodeId>(
      std::min<size_t>(Total, Opts.Limits.MaxLintNodes));
  if (Visit < Total)
    Out.markTruncated();
  if (Visit == 0)
    return;

  // Depths in one pass: Profile::createNode guarantees parents-first ids.
  std::vector<uint32_t> Depth(Visit, 0);
  size_t MaxDepth = 0;
  NodeId Deepest = 0;
  for (NodeId Id = 1; Id < Visit; ++Id) {
    NodeId Parent = P.node(Id).Parent;
    if (Parent != InvalidNode && Parent < Id)
      Depth[Id] = Depth[Parent] + 1;
    if (Depth[Id] > MaxDepth) {
      MaxDepth = Depth[Id];
      Deepest = Id;
    }
  }
  if (MaxDepth > Opts.MaxReasonableDepth)
    emit(Out, "EVL202",
         "CCT depth " + std::to_string(MaxDepth) +
             " exceeds the plausibility threshold of " +
             std::to_string(Opts.MaxReasonableDepth),
         "deep chains usually mean broken recursion folding in the "
         "producer",
         Deepest);

  for (NodeId Id = 0; Id < Visit; ++Id)
    if (P.node(Id).Children.size() > Opts.MaxReasonableFanOut)
      emit(Out, "EVL203",
           "node '" + std::string(P.nameOf(Id)) + "' has " +
               std::to_string(P.node(Id).Children.size()) +
               " children, above the plausibility threshold of " +
               std::to_string(Opts.MaxReasonableFanOut),
           "consider grouping call sites in the producer", Id);

  // Exclusive-exceeds-inclusive, per Sum-aggregated metric. Inclusive is
  // computed from exclusives bottom-up, so the only way exclusive can top
  // it is a negative descendant sum; report the first offender per metric.
  for (MetricId M = 0; M < P.metrics().size(); ++M) {
    if (P.metrics()[M].Aggregation != MetricAggregation::Sum)
      continue;
    MetricView View(P, M);
    for (NodeId Id = 0; Id < Visit; ++Id) {
      double Ex = View.exclusive(Id);
      double In = View.inclusive(Id);
      if (Ex > In + 1e-9 * std::max(1.0, std::abs(In))) {
        emit(Out, "EVL201",
             "node '" + std::string(P.nameOf(Id)) + "' has exclusive " +
                 P.metrics()[M].Name + " " + std::to_string(Ex) +
                 " exceeding its inclusive sum " + std::to_string(In),
             "a descendant carries a negative value for this metric", Id);
        break;
      }
    }
  }

  // Duplicate metric values on one node.
  for (NodeId Id = 0; Id < Visit; ++Id) {
    std::span<const MetricValue> Values = P.node(Id).Metrics;
    for (size_t I = 0; I < Values.size(); ++I) {
      bool Dup = false;
      for (size_t J = 0; J < I && !Dup; ++J)
        Dup = Values[J].Metric == Values[I].Metric;
      if (Dup) {
        emit(Out, "EVL207",
             "node '" + std::string(P.nameOf(Id)) +
                 "' carries two values for metric " +
                 std::to_string(Values[I].Metric),
             "only the first value is read; merge them in the producer",
             Id);
        break;
      }
    }
  }

  // Duplicate context ids within one group.
  for (size_t G = 0; G < P.groups().size(); ++G) {
    ContextGroup Group = P.groups()[G];
    std::vector<NodeId> Contexts(Group.Contexts.begin(), Group.Contexts.end());
    std::sort(Contexts.begin(), Contexts.end());
    auto Dup = std::adjacent_find(Contexts.begin(), Contexts.end());
    if (Dup != Contexts.end())
      emit(Out, "EVL204",
           "group " + std::to_string(G) + " lists node " +
               std::to_string(*Dup) + " more than once",
           "each role in a context group should be a distinct context",
           *Dup);
  }

  // Zero-metric subtrees: maximal subtrees of >= 2 nodes in which no node
  // carries a nonzero metric value.
  {
    std::vector<char> SubHas(Visit, 0);
    std::vector<uint32_t> SubSize(Visit, 1);
    for (NodeId Id = 0; Id < Visit; ++Id)
      for (const MetricValue &MV : P.node(Id).Metrics)
        if (MV.Value != 0.0) {
          SubHas[Id] = 1;
          break;
        }
    for (NodeId Id = Visit; Id-- > 1;) {
      NodeId Parent = P.node(Id).Parent;
      if (Parent != InvalidNode && Parent < Id) {
        SubHas[Parent] = static_cast<char>(SubHas[Parent] | SubHas[Id]);
        SubSize[Parent] += SubSize[Id];
      }
    }
    if (!SubHas[0] && Total > 1) {
      emit(Out, "EVL205",
           "the whole profile carries no metric values",
           "the producer recorded structure but no measurements", 0);
    } else {
      for (NodeId Id = 1; Id < Visit; ++Id) {
        NodeId Parent = P.node(Id).Parent;
        if (!SubHas[Id] && SubSize[Id] >= 2 && Parent != InvalidNode &&
            Parent < Visit && SubHas[Parent])
          emit(Out, "EVL205",
               "subtree of " + std::to_string(SubSize[Id]) +
                   " nodes rooted at '" + std::string(P.nameOf(Id)) +
                   "' carries no metric values",
               "prune it in the producer or ignore it in analysis", Id);
      }
    }
  }

  // Non-monotonic source offsets: siblings attributed to the same file
  // should appear in non-decreasing line order.
  for (NodeId Id = 0; Id < Visit; ++Id) {
    StringId PrevFile = 0;
    uint32_t PrevLine = 0;
    for (NodeId Child : P.node(Id).Children) {
      if (Child >= Visit)
        continue;
      const SourceLocation &Loc = P.frameOf(Child).Loc;
      if (Loc.File == 0 || Loc.Line == 0)
        continue;
      if (Loc.File == PrevFile && Loc.Line < PrevLine) {
        emit(Out, "EVL206",
             "children of '" + std::string(P.nameOf(Id)) +
                 "' are out of source order (" + std::string(P.text(Loc.File)) +
                 ":" + std::to_string(Loc.Line) + " after line " +
                 std::to_string(PrevLine) + ")",
             "producers usually emit call sites in source order", Child);
        break;
      }
      PrevFile = Loc.File;
      PrevLine = Loc.Line;
    }
  }

  // Unreferenced frames (only meaningful when every node was visited).
  if (Visit == Total && !P.frames().empty()) {
    std::vector<char> Referenced(P.frames().size(), 0);
    for (NodeId Id = 0; Id < Visit; ++Id)
      Referenced[P.node(Id).FrameRef] = 1;
    size_t Unreferenced = 0;
    FrameId First = 0;
    for (FrameId F = 0; F < Referenced.size(); ++F)
      if (!Referenced[F]) {
        if (Unreferenced == 0)
          First = F;
        ++Unreferenced;
      }
    if (Unreferenced > 0)
      emit(Out, "EVL208",
           std::to_string(Unreferenced) +
               " frame(s) referenced by no node (first: '" +
               std::string(P.text(P.frames()[First].Name)) + "')",
           "dead frame-table entries waste space in the container");
  }
}

bool ProfileLinter::lint(std::string_view Bytes, const DecodeLimits &Decode,
                         DiagnosticSet &Out) const {
  EvProfStreamDecoder Decoder(Decode);
  // A refusal poisons the decoder, so finish() repeats feed()'s error.
  (void)Decoder.feed(Bytes);
  Result<Profile> P = Decoder.finish();
  if (P) {
    lintProfile(*P, Out);
    return true;
  }
  // The fault that refused the stream is the one finding, in the
  // decoder's words.
  const EvProfFault &Fault = Decoder.fault();
  RuleRef Rule = "EVL100";
  std::string Message = P.error();
  const char *Hint = "";
  switch (Fault.What) {
  case EvProfFault::Malformed:
    Hint = "the stream is not .evprof wire data, or it truncates or "
           "corrupts a field";
    break;
  case EvProfFault::StringRef:
    Rule = "EVL101";
    Hint = "re-export the profile; the string table is incomplete";
    break;
  case EvProfFault::FrameRef:
    Rule = "EVL102";
    Hint = "re-export the profile; the frame table is incomplete";
    break;
  case EvProfFault::NodeRef:
    Rule = "EVL103";
    Hint = "context groups may only reference decoded CCT nodes";
    break;
  case EvProfFault::MetricRef:
    Rule = "EVL104";
    Hint = "drop the value or declare the metric";
    break;
  case EvProfFault::ParentOrder:
    Rule = "EVL105";
    Hint = "serialize nodes in id order with parents first";
    break;
  case EvProfFault::None:
  case EvProfFault::Other:
    Message = "profile does not decode: " + Message;
    break;
  }
  emit(Out, Rule, std::move(Message), Hint,
       Fault.Node == EvProfFault::NoNode ? InvalidNode
                                         : static_cast<NodeId>(Fault.Node));
  Out.markTruncated(); // Decoded rules never ran.
  return false;
}

} // namespace ev
