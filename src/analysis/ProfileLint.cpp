//===- analysis/ProfileLint.cpp - Profile lint engine ---------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProfileLint.h"

#include "analysis/MetricEngine.h"
#include "proto/EvProf.h"
#include "proto/EvProfFields.h"
#include "support/ProtoWire.h"

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

using namespace evprof;

namespace {

std::string ofTable(uint64_t Ref, size_t Size, const char *Table) {
  return "references " + std::string(Table) + " " + std::to_string(Ref) +
         " of a " + std::to_string(Size) + "-entry table";
}

} // namespace

void ProfileLinter::lintWire(std::string_view Bytes,
                             DiagnosticSet &Out) const {
  if (!isEvProf(Bytes)) {
    emit(Out, "EVL100", "not an .evprof stream: bad magic",
         "expected the 8-byte 'EVPROF1\\n' header");
    return;
  }
  Bytes.remove_prefix(EvProfMagic.size());

  // References resolve against the entries that arrived before them, the
  // way readEvProf decodes. Findings wait in Found until the walk reaches
  // the end: past a corrupt top-level field, reference checks are
  // meaningless, so a malformed stream yields EVL100 alone. Found holds
  // no more than Out has room for and counts the rest as drops, so
  // appending it leaves Out as if every finding had gone there directly.
  DiagnosticSet Found(Out.room());
  size_t Strings = 0, Metrics = 0;
  size_t FrameIdx = 0, NodeIdx = 0, GroupIdx = 0;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FProfileString:
      ++Strings;
      R.skip();
      break;
    case FProfileMetric:
      ++Metrics;
      R.skip();
      break;
    case FProfileFrame: {
      ProtoReader FR(R.bytes());
      while (FR.next()) {
        const char *Field = nullptr;
        switch (FR.fieldNumber()) {
        case FFrameName:
          Field = "name";
          break;
        case FFrameFile:
          Field = "file";
          break;
        case FFrameModule:
          Field = "module";
          break;
        default:
          break;
        }
        if (!Field) {
          FR.skip();
          continue;
        }
        uint64_t Ref = FR.varint();
        if (Ref >= Strings)
          emit(Found, "EVL101",
               "frame " + std::to_string(FrameIdx) + " " + Field + " " +
                   ofTable(Ref, Strings, "string"),
               "re-export the profile; the string table is incomplete");
      }
      if (FR.failed())
        emit(Found, "EVL100",
             "malformed Frame message at index " + std::to_string(FrameIdx));
      ++FrameIdx;
      break;
    }
    case FProfileNode: {
      if (NodeIdx >= Opts.Limits.MaxLintNodes) {
        Found.markTruncated();
        R.skip();
        ++NodeIdx;
        break;
      }
      uint64_t ParentPlus1 = 0, FrameRef = 0;
      bool SawParent = false, SawFrame = false;
      ProtoReader NR(R.bytes());
      while (NR.next()) {
        switch (NR.fieldNumber()) {
        case FNodeParentPlus1:
          ParentPlus1 = NR.varint();
          SawParent = true;
          break;
        case FNodeFrame:
          FrameRef = NR.varint();
          SawFrame = true;
          break;
        case FNodeValue: {
          ProtoReader VR(NR.bytes());
          while (VR.next()) {
            if (VR.fieldNumber() == FValueMetric) {
              uint64_t Ref = VR.varint();
              if (Ref >= Metrics)
                emit(Found, "EVL104",
                     "node " + std::to_string(NodeIdx) + " metric value " +
                         ofTable(Ref, Metrics, "metric"),
                     "drop the value or declare the metric",
                     static_cast<NodeId>(NodeIdx));
            } else {
              VR.skip();
            }
          }
          if (VR.failed())
            emit(Found, "EVL100",
                 "malformed MetricValue message in node " +
                     std::to_string(NodeIdx));
          break;
        }
        default:
          NR.skip();
        }
      }
      if (NR.failed())
        emit(Found, "EVL100",
             "malformed Node message at index " + std::to_string(NodeIdx));
      if (NodeIdx == 0 && SawParent && ParentPlus1 != 0)
        emit(Found, "EVL105", "first node is not a root",
             "node 0 must omit its parent reference", 0);
      if (NodeIdx > 0 && (ParentPlus1 == 0 || ParentPlus1 > NodeIdx))
        emit(Found, "EVL105",
             "node " + std::to_string(NodeIdx) +
                 " has parent reference " + std::to_string(ParentPlus1) +
                 "; parents must precede children",
             "serialize nodes in id order with parents first",
             static_cast<NodeId>(NodeIdx));
      if (SawFrame && FrameRef >= FrameIdx)
        emit(Found, "EVL102",
             "node " + std::to_string(NodeIdx) + " " +
                 ofTable(FrameRef, FrameIdx, "frame"),
             "re-export the profile; the frame table is incomplete",
             static_cast<NodeId>(NodeIdx));
      ++NodeIdx;
      break;
    }
    case FProfileGroup: {
      ProtoReader GR(R.bytes());
      while (GR.next()) {
        switch (GR.fieldNumber()) {
        case FGroupKind: {
          uint64_t Ref = GR.varint();
          if (Ref >= Strings)
            emit(Found, "EVL101",
                 "group " + std::to_string(GroupIdx) + " kind " +
                     ofTable(Ref, Strings, "string"));
          break;
        }
        case FGroupMetric: {
          uint64_t Ref = GR.varint();
          if (Ref >= Metrics)
            emit(Found, "EVL104",
                 "group " + std::to_string(GroupIdx) + " " +
                     ofTable(Ref, Metrics, "metric"));
          break;
        }
        case FGroupContext: {
          std::string_view Packed = GR.bytes();
          VarintReader VR(Packed.data(), Packed.size());
          while (!VR.atEnd() && !VR.failed()) {
            uint64_t Ref = VR.readVarint();
            if (Ref >= NodeIdx)
              emit(Found, "EVL103",
                   "group " + std::to_string(GroupIdx) + " context " +
                       ofTable(Ref, NodeIdx, "node"),
                   "context groups may only reference decoded CCT nodes");
          }
          if (VR.failed())
            emit(Found, "EVL100",
                 "malformed packed context list in group " +
                     std::to_string(GroupIdx));
          break;
        }
        default:
          GR.skip();
        }
      }
      if (GR.failed())
        emit(Found, "EVL100",
             "malformed Group message at index " + std::to_string(GroupIdx));
      ++GroupIdx;
      break;
    }
    default:
      R.skip();
    }
  }
  if (R.failed()) {
    emit(Out, "EVL100", "malformed EvProfile message",
         "the stream truncates or corrupts a field tag or length");
    return;
  }
  Out.append(Found);
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
  size_t Before = Out.size() + Out.dropped();
  lintWire(Bytes, Out);
  size_t WireFindings = Out.size() + Out.dropped() - Before;

  Result<Profile> P = readEvProf(Bytes, Decode);
  if (!P) {
    // The wire scan usually already explained the refusal; surface the
    // decoder's reason only when it did not (e.g. a decode-limit trip).
    if (WireFindings == 0)
      emit(Out, "EVL100", "profile does not decode: " + P.error());
    Out.markTruncated(); // Decoded rules never ran.
    return false;
  }
  lintProfile(*P, Out);
  return true;
}

} // namespace ev
