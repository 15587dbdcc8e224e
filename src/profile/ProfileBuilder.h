//===- profile/ProfileBuilder.h - High-level data builder -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "data builder" of paper §IV-B: the simple high-level API that lets a
/// profiler emit EasyView's representation directly, or lets a format
/// converter translate a foreign profile. The paper measures that adopting
/// this API takes under 20 lines of code in an existing profiler; the
/// programmability benchmark (bench_table1_programmability) measures the
/// same property for this reproduction.
///
/// ProfileBuilder is the only mutable front end of a profile: decoders,
/// converters, transforms, analyses and the EVQL `derive` all grow a
/// builder and end with one freeze pass (take() / build()) into the
/// immutable column block of profile/Profile.h.
///
/// Typical use:
/// \code
///   ProfileBuilder B("my run");
///   MetricId Time = B.addMetric("cpu-time", "nanoseconds");
///   std::vector<FrameId> Path = {
///       B.functionFrame("main", "main.c", 10, "a.out"),
///       B.functionFrame("work", "work.c", 42, "a.out")};
///   B.addSample(Path, Time, 1500.0);
///   Profile P = B.take();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_PROFILE_PROFILEBUILDER_H
#define EASYVIEW_PROFILE_PROFILEBUILDER_H

#include "profile/Profile.h"

#include <span>
#include <string_view>
#include <unordered_map>

namespace ev {

class ProfileBuilder {
public:
  /// A builder holding only the root node and frame.
  explicit ProfileBuilder(std::string Name = "");
  /// A builder seeded with every table of \p P (same string, frame, metric
  /// and node ids), for producers that extend an existing profile.
  explicit ProfileBuilder(const Profile &P);

  void setName(std::string Name) { Label = std::move(Name); }
  const std::string &name() const { return Label; }

  //===--------------------------------------------------------------------===
  // Strings and metrics
  //===--------------------------------------------------------------------===

  StringId intern(std::string_view Text) { return Strings.intern(Text); }
  std::string_view text(StringId Id) const { return Strings.text(Id); }
  size_t stringCount() const { return Strings.size(); }

  /// Registers (or finds) a metric column.
  MetricId addMetric(std::string_view Name, std::string_view Unit,
                     MetricAggregation Aggregation = MetricAggregation::Sum);
  /// Registers every metric of \p Src in order; \returns the id map.
  std::vector<MetricId> addMetrics(const Profile &Src);
  MetricId findMetric(std::string_view Name) const;
  const std::vector<MetricDescriptor> &metrics() const { return Metrics; }

  //===--------------------------------------------------------------------===
  // Frames
  //===--------------------------------------------------------------------===

  /// Interns \p F (whose string ids belong to this builder).
  FrameId internFrame(const Frame &F);

  /// Interns a function frame with optional code mapping.
  FrameId functionFrame(std::string_view Name, std::string_view File = "",
                        uint32_t Line = 0, std::string_view Module = "",
                        uint64_t Address = 0);

  /// Interns a data-object frame (heap object, static symbol).
  FrameId dataFrame(std::string_view Name, std::string_view File = "",
                    uint32_t Line = 0);

  /// Interns a frame of arbitrary kind.
  FrameId frame(FrameKind Kind, std::string_view Name, std::string_view File,
                uint32_t Line, std::string_view Module, uint64_t Address = 0);

  /// How importFrame treats the source frame's instruction address.
  enum class Address : uint8_t {
    Keep, ///< Copy it (same-run copies: transforms, prune, splits).
    Zero, ///< Drop it: cross-run merges match frames textually (ASLR).
  };

  /// Copies frame \p F of \p Src into this builder, re-interning its name,
  /// file and module strings (in that order).
  FrameId importFrame(const Profile &Src, const Frame &F,
                      Address Mode = Address::Keep);
  FrameId importFrame(const Profile &Src, FrameId F,
                      Address Mode = Address::Keep) {
    return importFrame(Src, Src.frame(F), Mode);
  }
  size_t frameCount() const { return Frames.size(); }

  //===--------------------------------------------------------------------===
  // Nodes
  //===--------------------------------------------------------------------===

  NodeId root() const { return 0; }
  size_t nodeCount() const { return Parents.size(); }

  /// Appends a fresh child of \p Parent referencing \p Frame.
  NodeId createNode(NodeId Parent, FrameId Frame);

  /// The child of \p Parent with \p Frame, created on first use: the one
  /// (parent, frame) -> child index every prefix-merging producer shares.
  /// The lookup of an existing child is inline: decoders call this once
  /// per stack frame.
  NodeId child(NodeId Parent, FrameId Frame) {
    if (Indexed)
      if (NodeId Found = Index.find(childKey(Parent, Frame));
          Found != InvalidNode)
        return Found;
    return childSlow(Parent, Frame);
  }

  /// Re-points \p Node at \p Frame (decoders set the root's frame).
  void setFrame(NodeId Node, FrameId Frame) { FrameRefs[Node] = Frame; }

  /// Materializes the CCT path root->...->leaf, merging common prefixes,
  /// and \returns the leaf node.
  NodeId pushPath(std::span<const FrameId> Path);

  /// Records \p Value of \p Metric at the leaf of \p Path (exclusive).
  NodeId addSample(std::span<const FrameId> Path, MetricId Metric,
                   double Value);

  /// Adds \p Value to \p Node's exclusive value of \p Metric.
  void addValue(NodeId Node, MetricId Metric, double Value);

  /// Appends \p MV to \p Node's values verbatim, even when the metric is
  /// already present (decoders keep the wire's value list as is).
  void appendValue(NodeId Node, MetricValue MV);

  /// \returns \p Node's exclusive value of \p Metric, \p Fallback if absent.
  double metricOr(NodeId Node, MetricId Metric, double Fallback = 0.0) const;
  /// True when \p Node carries at least one value.
  bool hasValues(NodeId Node) const { return ValueHead[Node] != NoSlot; }

  //===--------------------------------------------------------------------===
  // Groups, sizing, freezing
  //===--------------------------------------------------------------------===

  /// Binds one metric value to several already-materialized contexts
  /// (reuse pairs etc.).
  void addGroup(std::string_view Kind, std::span<const NodeId> Contexts,
                MetricId Metric, double Value) {
    addGroup(intern(Kind), Contexts, Metric, Value);
  }
  void addGroup(StringId Kind, std::span<const NodeId> Contexts,
                MetricId Metric, double Value);
  size_t groupCount() const { return Groups.size(); }

  /// Pre-sizes the tables (loaders call this after a wire pre-scan so the
  /// decode loop never reallocates).
  void reserve(size_t Nodes, size_t Frames);
  void reserveStrings(size_t Count, size_t Bytes) {
    Strings.reserve(Count, Bytes);
  }

  /// Approximate heap footprint of the tables under construction.
  size_t approxMemoryBytes() const;

  /// Freezes a copy of the current state; the builder stays usable.
  Profile build() const;

  /// Freezes and resets the builder to a bare one.
  Profile take();

private:
  static constexpr uint32_t NoSlot = UINT32_MAX;

  /// Open-addressing (parent << 32 | frame) -> child table.
  class ChildTable {
  public:
    /// \returns the child for \p Key, or InvalidNode.
    NodeId find(uint64_t Key) const {
      if (Keys.empty())
        return InvalidNode;
      size_t Mask = Keys.size() - 1;
      for (size_t S = slotOf(Key, Mask);; S = (S + 1) & Mask) {
        if (Keys[S] == Key)
          return Children[S];
        if (Keys[S] == EmptyKey)
          return InvalidNode;
      }
    }
    /// Inserts \p Key -> \p Child unless \p Key is already present.
    void insert(uint64_t Key, NodeId Child);
    size_t capacity() const { return Keys.size(); }

  private:
    static constexpr uint64_t EmptyKey = ~uint64_t(0);

    /// splitmix64's finalizer: every key bit (parent and frame alike)
    /// reaches the low bits the mask keeps.
    static size_t slotOf(uint64_t Key, size_t Mask) {
      Key ^= Key >> 30;
      Key *= 0xBF58476D1CE4E5B9ULL;
      Key ^= Key >> 27;
      Key *= 0x94D049BB133111EBULL;
      Key ^= Key >> 31;
      return static_cast<size_t>(Key) & Mask;
    }

    void grow();
    std::vector<uint64_t> Keys; ///< EmptyKey marks a free slot.
    std::vector<NodeId> Children;
    size_t Used = 0;
  };

  static uint64_t childKey(NodeId Parent, FrameId Frame) {
    return (static_cast<uint64_t>(Parent) << 32) | Frame;
  }

  /// child() past the inline lookup: indexes the tree on first use, then
  /// finds or creates the child.
  NodeId childSlow(NodeId Parent, FrameId Frame);

  std::string Label;
  StringInterner Strings;
  std::vector<MetricDescriptor> Metrics;
  std::vector<Frame> Frames;
  std::unordered_map<Frame, FrameId, FrameHash> FrameIndex;

  std::vector<NodeId> Parents;
  std::vector<FrameId> FrameRefs;
  /// Per-node singly linked value lists in insertion order: the slots live
  /// in Values/ValueNext, so growing a node's list never moves another's.
  std::vector<uint32_t> ValueHead, ValueTail;
  std::vector<MetricValue> Values;
  std::vector<uint32_t> ValueNext;

  struct GroupRecord {
    StringId Kind;
    MetricId Metric;
    double Value;
    uint32_t Begin; ///< First context in GroupContexts.
  };
  std::vector<GroupRecord> Groups;
  std::vector<NodeId> GroupContexts;

  /// Built on the first child() call from every existing node (first
  /// child wins), then kept current by createNode.
  ChildTable Index;
  bool Indexed = false;
};

} // namespace ev

#endif // EASYVIEW_PROFILE_PROFILEBUILDER_H
