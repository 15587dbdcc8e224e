//===- profile/Profile.h - Generic profile representation -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EasyView's generic profile representation (paper Fig. 2): all monitoring
/// points are organized into a compact calling context tree (CCT) produced
/// by merging common call-path prefixes. Each CCT node carries a context
/// (frame with source-code attribution) and a list of exclusive metric
/// values. The representation additionally supports:
///
///  - data objects as contexts (data-centric profilers such as DrCCTProf,
///    ScaAnalyzer, MemProf): FrameKind::DataObject;
///  - multiple metrics per monitoring point;
///  - multiple contexts bound to one metric (reuse pairs, redundancy
///    pairs, data races, false sharing): ContextGroup.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROFILE_PROFILE_H
#define EASYVIEW_PROFILE_PROFILE_H

#include "support/Result.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Kinds of profiling contexts (paper §IV-A "profiling contexts" cover the
/// whole program down to instructions, plus data objects).
enum class FrameKind : uint8_t {
  Root,        ///< Program/thread entry; exactly one per profile.
  Function,    ///< A function frame on the call stack.
  Loop,        ///< A source loop within a function.
  BasicBlock,  ///< A basic block (fine-grained profilers).
  Instruction, ///< A single instruction address.
  DataObject,  ///< A heap/static data object (data-centric analysis).
  Thread,      ///< A thread context grouping node.
};

/// \returns a stable lowercase name for \p Kind ("function", ...).
std::string_view frameKindName(FrameKind Kind);

/// Source-code attribution of a context (paper §IV-A "code mapping").
struct SourceLocation {
  StringId File = 0;   ///< Source file path (interned), 0 when unknown.
  uint32_t Line = 0;   ///< 1-based line; 0 when unknown.
  StringId Module = 0; ///< Load module (binary / shared library).
  uint64_t Address = 0; ///< Instruction pointer, 0 when unknown.

  bool operator==(const SourceLocation &O) const = default;

  /// \returns true when a source line mapping is available. The renderers
  /// use this for the "darkness" color semantics (paper §VI-B).
  bool hasSourceMapping() const { return File != 0 && Line != 0; }
};

/// A deduplicated context descriptor shared by CCT nodes.
struct Frame {
  FrameKind Kind = FrameKind::Function;
  StringId Name = 0; ///< Function or data-object name (interned).
  SourceLocation Loc;

  bool operator==(const Frame &O) const = default;
};

/// Hashes every member of a Frame, for frame-keyed hash tables.
struct FrameHash {
  size_t operator()(const Frame &F) const {
    uint64_t H = static_cast<uint64_t>(F.Kind);
    auto Mix = [&H](uint64_t V) {
      H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
    };
    Mix(F.Name);
    Mix(F.Loc.File);
    Mix(F.Loc.Line);
    Mix(F.Loc.Module);
    Mix(F.Loc.Address);
    return static_cast<size_t>(H);
  }
};

// Frames and metric values are stored verbatim in the column block; the
// block is zero-filled and written member by member, so padding is zero.
static_assert(sizeof(Frame) == 32 && alignof(Frame) == 8);

/// Index of a Frame in Profile::frames().
using FrameId = uint32_t;
/// Index of a CCTNode in Profile::nodes().
using NodeId = uint32_t;
/// Index of a MetricDescriptor in Profile::metrics().
using MetricId = uint32_t;

inline constexpr NodeId InvalidNode = std::numeric_limits<NodeId>::max();

/// How values of a metric combine when profiles or nodes merge.
enum class MetricAggregation : uint8_t {
  Sum, ///< e.g. cycles, allocated bytes.
  Min,
  Max,
  Last, ///< e.g. a gauge such as active memory in a snapshot.
};

/// Describes one metric column (paper §IV-A "metrics").
struct MetricDescriptor {
  std::string Name; ///< e.g. "cpu-time", "alloc-bytes".
  std::string Unit; ///< e.g. "nanoseconds", "bytes", "count".
  MetricAggregation Aggregation = MetricAggregation::Sum;

  bool operator==(const MetricDescriptor &O) const = default;
};

/// Sparse (metric, exclusive value) pair attached to a CCT node.
struct MetricValue {
  MetricId Metric = 0;
  double Value = 0.0;

  bool operator==(const MetricValue &O) const = default;
};
static_assert(sizeof(MetricValue) == 16 && alignof(MetricValue) == 8);

/// One calling-context-tree node, viewed out of its frozen Profile. The
/// spans point into the profile's column block and stay valid for as long
/// as any Profile sharing that block lives. Children keep insertion
/// order; the analysis passes sort as needed.
struct CCTNode {
  NodeId Parent = InvalidNode;
  FrameId FrameRef = 0;
  std::span<const NodeId> Children;
  /// Exclusive metric values recorded directly at this context.
  std::span<const MetricValue> Metrics;

  /// \returns the exclusive value of \p Metric, 0 when absent.
  double metricOr(MetricId Metric, double Fallback = 0.0) const {
    for (const MetricValue &MV : Metrics)
      if (MV.Metric == Metric)
        return MV.Value;
    return Fallback;
  }
};

/// Binds one metric value to several contexts at once. This is how the
/// representation models reuse pairs (use + reuse contexts), redundancy
/// pairs, data races, and false sharing (paper §IV-A last paragraph);
/// Fig. 7's correlated flame graphs render these groups.
struct ContextGroup {
  StringId Kind = 0; ///< e.g. "reuse", "redundancy", "race" (interned).
  std::span<const NodeId> Contexts; ///< Ordered roles, e.g. {alloc, use, reuse}.
  MetricId Metric = 0;
  double Value = 0.0;
};

/// A random-access range whose elements are computed from their index —
/// how Profile exposes its columns as CCTNode / ContextGroup values. The
/// elements are returned by value, so `for (const CCTNode &N : P.nodes())`
/// binds each one for the duration of its iteration.
template <typename Owner, typename T, T (Owner::*At)(uint32_t) const>
class IndexRange {
public:
  class iterator {
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = T;

    iterator() = default;
    iterator(const Owner *O, uint32_t I) : O(O), I(I) {}
    T operator*() const { return (O->*At)(I); }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator==(const iterator &Other) const { return I == Other.I; }

  private:
    const Owner *O = nullptr;
    uint32_t I = 0;
  };

  IndexRange(const Owner *O, size_t Count)
      : O(O), Count(static_cast<uint32_t>(Count)) {}
  iterator begin() const { return {O, 0}; }
  iterator end() const { return {O, Count}; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  T operator[](size_t I) const { return (O->*At)(static_cast<uint32_t>(I)); }

private:
  const Owner *O;
  uint32_t Count;
};

/// Read-only view of a profile's string table.
class StringTableView {
public:
  StringTableView(const uint32_t *Offsets, const char *Chars, size_t Count)
      : Offsets(Offsets), Chars(Chars), Count(Count) {}
  size_t size() const { return Count; }
  std::string_view text(StringId Id) const {
    assert(Id < Count && "string id out of range");
    return {Chars + Offsets[Id], Offsets[Id + 1] - Offsets[Id]};
  }
  /// Total bytes of string payload.
  size_t payloadBytes() const { return Count ? Offsets[Count] : 0; }

private:
  const uint32_t *Offsets;
  const char *Chars;
  size_t Count;
};

/// Depth of every node from a parents column (root slot = InvalidNode),
/// in one prefix pass over parents-first order. The root's depth is
/// explicitly 0, and any malformed slot — the InvalidNode sentinel on a
/// non-root node, or a forward reference Parents[i] >= i — also maps to 0
/// instead of indexing out of bounds (crafted trees must never turn a
/// depth query into UB). Backs the EVQL VM's precomputed depth intrinsic
/// and the test oracle's depth().
std::vector<uint32_t> depthsFromParents(std::span<const uint32_t> Parents);

/// Magic bytes at the start of every spilled profile block file.
inline constexpr std::string_view EvColMagic = "EVCOL2\n";

/// The frozen profile: string table + metric schema + frame table + CCT +
/// groups, packed into ONE immutable column block:
///
///   topology   Parents[n] FrameRefs[n] ChildOffsets[n+1] ChildIds[n-1]
///   metrics    ValueOffsets[n+1] Values[v] (CSR of exclusive values in
///              node order, each node's values in insertion order)
///   frames     Frame[f]
///   strings    StringOffsets[s+1] chars (the profile's own table)
///   schema     metric names/units (offsets + chars), aggregations
///   groups     kind/metric/value records + a contexts CSR
///
/// Profiles are built with ProfileBuilder (the only mutable front end),
/// loaded from .evprof bytes (proto/EvProf.h), converted from foreign
/// formats (src/convert/), or mapped back from a spill file. Copies share
/// the block, so copying a Profile is O(1). Because the block is one
/// contiguous allocation, spilling a cold profile is a single sequential
/// write and faulting it back is an mmap plus a validation pass.
class Profile {
  // Element accessors behind nodes() and groups(); declared first so the
  // range aliases below can name them.
  CCTNode nodeAt(uint32_t Id) const {
    return {Parents[Id], FrameRefs[Id],
            std::span<const NodeId>(ChildIds + ChildOff[Id],
                                    ChildOff[Id + 1] - ChildOff[Id]),
            std::span<const MetricValue>(Values + ValueOff[Id],
                                         ValueOff[Id + 1] - ValueOff[Id])};
  }
  ContextGroup groupAt(uint32_t I) const;

public:
  /// A bare profile: the root node and frame only.
  Profile();
  Profile(const Profile &) = default;
  Profile &operator=(const Profile &) = default;
  /// The moved-from profile becomes a bare profile.
  Profile(Profile &&Other) noexcept;
  Profile &operator=(Profile &&Other) noexcept;

  /// Human-readable label (file name, "thread 3", "run A", ...).
  const std::string &name() const { return Label; }
  /// A copy (sharing this profile's block) labelled \p Name.
  Profile renamed(std::string Name) const;

  //===--------------------------------------------------------------------===
  // String table
  //===--------------------------------------------------------------------===

  StringTableView strings() const {
    return StringTableView(StrOff, StrChars, Counts.Strings);
  }
  std::string_view text(StringId Id) const { return strings().text(Id); }

  //===--------------------------------------------------------------------===
  // Metric schema
  //===--------------------------------------------------------------------===

  const std::vector<MetricDescriptor> &metrics() const;

  /// \returns the id of metric \p Name, or InvalidMetric.
  static constexpr MetricId InvalidMetric =
      std::numeric_limits<MetricId>::max();
  MetricId findMetric(std::string_view Name) const;

  //===--------------------------------------------------------------------===
  // Frames
  //===--------------------------------------------------------------------===

  std::span<const Frame> frames() const { return {Frames, Counts.Frames}; }
  const Frame &frame(FrameId Id) const {
    assert(Id < Counts.Frames && "frame id out of range");
    return Frames[Id];
  }

  //===--------------------------------------------------------------------===
  // CCT
  //===--------------------------------------------------------------------===

  using NodeRange = IndexRange<Profile, CCTNode, &Profile::nodeAt>;
  NodeRange nodes() const { return NodeRange(this, Counts.Nodes); }
  CCTNode node(NodeId Id) const {
    assert(Id < Counts.Nodes && "node id out of range");
    return nodeAt(Id);
  }
  size_t nodeCount() const { return Counts.Nodes; }

  /// The root node id (always 0; every profile has a root).
  NodeId root() const { return 0; }

  /// Parent of every node (the root's slot holds InvalidNode).
  std::span<const NodeId> parents() const { return {Parents, Counts.Nodes}; }
  /// Frame of every node.
  std::span<const FrameId> frameRefs() const {
    return {FrameRefs, Counts.Nodes};
  }

  /// Frame of the node (convenience).
  const Frame &frameOf(NodeId Id) const { return frame(FrameRefs[Id]); }
  /// Function/data-object name of the node.
  std::string_view nameOf(NodeId Id) const {
    return text(frameOf(Id).Name);
  }

  /// Reconstructs the root-to-node call path.
  std::vector<NodeId> pathTo(NodeId Id) const;

  /// Depth of a node (root = 0).
  unsigned depth(NodeId Id) const;

  //===--------------------------------------------------------------------===
  // Multi-context metric groups
  //===--------------------------------------------------------------------===

  using GroupRange = IndexRange<Profile, ContextGroup, &Profile::groupAt>;
  GroupRange groups() const { return GroupRange(this, Counts.Groups); }

  //===--------------------------------------------------------------------===
  // Integrity, accounting and spilling
  //===--------------------------------------------------------------------===

  /// Structural validation used by tests and by the loaders: parent/child
  /// symmetry, acyclicity, in-range frame/metric/string references.
  /// \returns true on success; otherwise an error naming the first problem.
  Result<bool> verify() const;

  /// Bytes of the column block (arena bytes, or mapped bytes for a
  /// faulted profile — mapped pages occupy page cache and are accounted
  /// identically).
  size_t approxMemoryBytes() const;

  /// Dumps a header page, the column block and the label to \p Path (one
  /// sequential write). \returns the file size on success.
  Result<uint64_t> spillTo(const std::string &Path) const;

  /// Maps a spilled file back. The columns point straight into the
  /// read-only mapping (zero-copy fault). Every reference — parents, frame
  /// refs, CSR offsets, string ids — is validated before the mapping is
  /// accepted, so a truncated or corrupt spill file is an error, never
  /// undefined behavior.
  static Result<Profile> mapFrom(const std::string &Path);

  /// True when the columns live in a read-only spill-file mapping.
  bool isMapped() const;

  /// Fixed counts describing one column block; the column layout is a pure
  /// function of these (so a spill header stores only counts).
  struct Header {
    uint64_t Nodes = 0, Values = 0, Frames = 0, Strings = 0, StringBytes = 0;
    uint64_t Metrics = 0, SchemaBytes = 0, Groups = 0, GroupContexts = 0;
    uint64_t BlockBytes = 0;
  };

private:
  friend class ProfileBuilder;
  struct Block;

  Profile(std::shared_ptr<const Block> Data, std::string Name);
  /// Points the column pointers into Data's bytes.
  void bind();

  std::shared_ptr<const Block> Data;
  std::string Label;
  Header Counts;
  const NodeId *Parents = nullptr;
  const FrameId *FrameRefs = nullptr;
  const uint32_t *ChildOff = nullptr;
  const NodeId *ChildIds = nullptr;
  const uint32_t *ValueOff = nullptr;
  const MetricValue *Values = nullptr;
  const Frame *Frames = nullptr;
  const uint32_t *StrOff = nullptr;
  const char *StrChars = nullptr;
  const uint32_t *GroupKinds = nullptr;
  const uint32_t *GroupMetrics = nullptr;
  const double *GroupValues = nullptr;
  const uint32_t *GroupCtxOff = nullptr;
  const NodeId *GroupCtxIds = nullptr;
};

} // namespace ev

#endif // EASYVIEW_PROFILE_PROFILE_H
