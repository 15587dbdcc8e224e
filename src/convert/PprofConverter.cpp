//===- convert/PprofConverter.cpp - pprof -> generic representation -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts pprof profile.proto bytes (PProf, Cloud Profiler, Go runtime
/// profiles) into the generic representation. pprof samples carry their
/// call stack leaf-first with optional inlined frames per location; the
/// converter reverses to root-first and expands inline frames outermost
/// first, so the resulting CCT matches what `pprof -tree` would display.
///
/// The decoder streams: it makes two passes over the wire and never builds
/// a pprof::PprofProfile.
///   1. The tables: the string table as views into the caller's bytes,
///      sample types, mappings, functions and locations as flat rows. Each
///      location then becomes one run of root-first frames in a single
///      flattened vector, interned in location-table order.
///   2. The samples, straight into the ProfileBuilder. A sample's location
///      ids are decoded into one reused buffer, and its path resumes from
///      the longest root-side prefix it shares with the previous sample.
///      ProfileBuilder::child returns existing nodes, so the nodes are
///      created in the order a full walk of every path creates them.
///
/// It accepts exactly what pprof::read followed by a full conversion
/// accepts, reports the same error for the first fault on the wire, and
/// charges a ResourceGuard so that hostile bytes are refused with the
/// guard's message instead of growing an unbounded tree.
///
//===----------------------------------------------------------------------===//

#include "convert/Converters.h"

#include "profile/ProfileBuilder.h"
#include "proto/PprofFormat.h"
#include "support/ProtoWire.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace ev {
namespace convert {

namespace {

/// Maps a pprof unit string onto the generic unit vocabulary.
std::string_view mapUnit(std::string_view Unit) {
  if (Unit == "nanoseconds" || Unit == "ns")
    return "nanoseconds";
  if (Unit == "microseconds" || Unit == "us")
    return "nanoseconds"; // Values are scaled below.
  if (Unit == "milliseconds" || Unit == "ms")
    return "nanoseconds";
  if (Unit == "seconds" || Unit == "s")
    return "nanoseconds";
  if (Unit == "bytes")
    return "bytes";
  return "count";
}

double unitScale(std::string_view Unit) {
  if (Unit == "microseconds" || Unit == "us")
    return 1e3;
  if (Unit == "milliseconds" || Unit == "ms")
    return 1e6;
  if (Unit == "seconds" || Unit == "s")
    return 1e9;
  return 1.0;
}

/// Appends the packed varints of \p Packed to \p Out while it holds fewer
/// than \p Cap entries; later ones are decoded, checked and counted in
/// \p Dropped. \returns false on a truncated or over-long varint, as
/// VarintReader does.
template <typename T>
bool appendPacked(std::string_view Packed, std::vector<T> &Out, size_t Cap,
                  size_t &Dropped) {
  const auto *P = reinterpret_cast<const uint8_t *>(Packed.data());
  const uint8_t *End = P + Packed.size();
  // Every varint takes at least one byte: size for that, trim after.
  size_t Used = Out.size();
  Out.resize(Used + (Used < Cap ? std::min(Packed.size(), Cap - Used) : 0));
  T *Dst = Out.data() + Used;
  T *Full = Out.data() + Out.size();
  while (P < End) {
    uint64_t Value = *P++;
    if (Value >= 0x80) {
      Value &= 0x7F;
      bool Done = false;
      for (unsigned I = 1, Shift = 7; I < 10 && !Done; ++I, Shift += 7) {
        if (P == End)
          return false;
        uint8_t Byte = *P++;
        if (I == 9 && (Byte & 0xFE))
          return false;
        Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
        Done = !(Byte & 0x80);
      }
      if (!Done)
        return false;
    }
    if (Dst != Full)
      *Dst++ = static_cast<T>(Value);
    else
      ++Dropped;
  }
  Out.resize(static_cast<size_t>(Dst - Out.data()));
  return true;
}

/// A repeated varint field, packed or not, appended to \p Out as
/// appendPacked does. \returns false when a packed run is malformed; a
/// malformed unpacked value fails \p R instead.
template <typename T>
bool appendRepeated(ProtoReader &R, std::vector<T> &Out, size_t Cap,
                    size_t &Dropped) {
  if (R.wireType() == WireType::LengthDelimited)
    return appendPacked(R.bytes(), Out, Cap, Dropped);
  T Value = static_cast<T>(R.varint());
  if (Out.size() < Cap)
    Out.push_back(Value);
  else
    ++Dropped;
  return true;
}

/// One sample's location ids (leaf-first) and values, in buffers reused
/// across samples. At most MaxIds ids and MaxValues values are kept, so a
/// hostile sample cannot allocate past the caps; DroppedIds counts the ids
/// decoded beyond them.
struct SampleBuffer {
  SampleBuffer(size_t MaxIds, size_t MaxValues)
      : MaxIds(MaxIds), MaxValues(MaxValues) {}

  /// Decodes the Sample message \p Body, replacing the contents. Labels
  /// are checked, not kept. \returns the error pprof::read reports for
  /// the message, or nullptr.
  const char *decode(std::string_view Body) {
    Ids.clear();
    Values.clear();
    DroppedIds = 0;
    size_t DroppedValues = 0;
    ProtoReader R(Body);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case 1:
        if (!appendRepeated(R, Ids, MaxIds, DroppedIds))
          return "malformed sample location ids";
        break;
      case 2:
        if (!appendRepeated(R, Values, MaxValues, DroppedValues))
          return "malformed sample values";
        break;
      case 3: {
        ProtoReader L(R.bytes());
        while (L.next())
          if (L.fieldNumber() >= 1 && L.fieldNumber() <= 4)
            (void)L.varint();
        if (L.failed())
          return "malformed Label";
        break;
      }
      default:
        R.skip();
      }
    }
    return R.failed() ? "malformed Sample" : nullptr;
  }

  std::vector<uint64_t> Ids;
  std::vector<int64_t> Values;
  size_t DroppedIds = 0;

private:
  size_t MaxIds, MaxValues;
};

/// Reads the varint fields 1..N of a table message into \p Out[0..N);
/// other fields are skipped. Field \p Nested, when set, is handed to
/// \p OnNested instead. \returns false when the message is malformed.
template <size_t N, typename Fn>
bool readMessage(std::string_view Body, uint64_t (&Out)[N], uint32_t Nested,
                 Fn &&OnNested) {
  ProtoReader R(Body);
  while (R.next()) {
    uint32_t F = R.fieldNumber();
    if (F == Nested) {
      if (!OnNested(R.bytes()))
        return false;
    } else if (F >= 1 && F <= N) {
      Out[F - 1] = R.varint();
    } else {
      R.skip();
    }
  }
  return !R.failed();
}

template <size_t N>
bool readMessage(std::string_view Body, uint64_t (&Out)[N]) {
  return readMessage(Body, Out, 0, [](std::string_view) { return true; });
}

/// A pprof::Location whose lines live in one shared vector.
struct LocationRow {
  uint64_t Id;
  uint64_t MappingId;
  uint64_t Address;
  uint32_t FirstLine; ///< Into Tables::Lines, innermost first.
  uint32_t LineCount;
};

/// Maps pprof table ids (arbitrary uint64s) to row indices; the first row
/// with an id wins. Ids no larger than twice the row count index a dense
/// vector; sparser ids use a hash map, so a hostile id of 2^63 allocates
/// nothing.
class IdIndex {
public:
  static constexpr uint32_t None = UINT32_MAX;

  template <typename Row> explicit IdIndex(const std::vector<Row> &Rows) {
    uint64_t Max = 0;
    for (const Row &R : Rows)
      Max = std::max(Max, R.Id);
    Sparse = Max > 2 * static_cast<uint64_t>(Rows.size());
    if (Sparse)
      Hashed.reserve(Rows.size());
    else
      Dense.assign(static_cast<size_t>(Max) + 1, None);
    for (uint32_t I = 0; I < Rows.size(); ++I) {
      if (Sparse)
        Hashed.emplace(Rows[I].Id, I);
      else if (Dense[Rows[I].Id] == None)
        Dense[Rows[I].Id] = I;
    }
  }

  uint32_t find(uint64_t Id) const {
    if (!Sparse)
      return Id < Dense.size() ? Dense[Id] : None;
    auto It = Hashed.find(Id);
    return It == Hashed.end() ? None : It->second;
  }

private:
  bool Sparse = false;
  std::vector<uint32_t> Dense;
  std::unordered_map<uint64_t, uint32_t> Hashed;
};

/// Everything but the samples, read in pass one.
struct Tables {
  std::vector<std::string_view> Strings; ///< Views into the input.
  std::vector<pprof::ValueType> SampleTypes;
  std::vector<pprof::Mapping> Mappings;
  std::vector<pprof::Function> Functions;
  std::vector<LocationRow> Locations;
  std::vector<pprof::Line> Lines;

  std::string_view text(int64_t Id) const {
    if (Id < 0 || static_cast<uint64_t>(Id) >= Strings.size())
      return {};
    return Strings[static_cast<size_t>(Id)];
  }
};

/// The two-pass decoder. One instance converts one input.
class PprofDecoder {
public:
  PprofDecoder(std::string_view Bytes, const DecodeLimits &Limits)
      : Bytes(Bytes), Guard(Limits), B("pprof profile") {}

  Result<Profile> run() {
    if (!readTables())
      return firstFault(SamplesSeen);
    if (T.Strings.empty())
      T.Strings.emplace_back();
    if (!T.Strings[0].empty())
      return fail("pprof string_table[0] must be empty");
    if (T.SampleTypes.empty())
      return fail("pprof profile has no sample types");
    internTables();
    if (!Guard.chargeNode()) // The root.
      return makeError(Guard.error());
    if (!buildSamples())
      return firstFault(SIZE_MAX);
    return B.take();
  }

private:
  /// Pass one: every top-level field but the samples, which are only
  /// counted. Stops at the first fault, as pprof::read does.
  bool readTables() {
    ProtoReader R(Bytes);
    while (R.next()) {
      switch (R.fieldNumber()) {
      case pprof::FSampleType:
      case pprof::FPeriodType: {
        bool IsSampleType = R.fieldNumber() == pprof::FSampleType;
        uint64_t VT[2] = {};
        if (!readMessage(R.bytes(), VT))
          return stop("malformed ValueType");
        if (IsSampleType) {
          if (!Guard.chargeMetric())
            return stop(Guard.error());
          T.SampleTypes.push_back(
              {static_cast<int64_t>(VT[0]), static_cast<int64_t>(VT[1])});
        }
        break;
      }
      case pprof::FSample:
        (void)R.bytes();
        ++SamplesSeen;
        break;
      case pprof::FMapping: {
        uint64_t M[6] = {};
        if (!readMessage(R.bytes(), M))
          return stop("malformed Mapping");
        if (!Guard.chargeAlloc(sizeof(pprof::Mapping)))
          return stop(Guard.error());
        T.Mappings.push_back({M[0], M[1], M[2], M[3],
                              static_cast<int64_t>(M[4]),
                              static_cast<int64_t>(M[5])});
        break;
      }
      case pprof::FLocation: {
        uint64_t L[3] = {}; // Line messages are field 4.
        size_t FirstLine = T.Lines.size();
        bool LinesOk = true;
        // Each line becomes a frame; a location without lines becomes one
        // address frame.
        bool Ok = readMessage(R.bytes(), L, 4, [&](std::string_view Line) {
          uint64_t Ln[2] = {};
          LinesOk = readMessage(Line, Ln);
          T.Lines.push_back({Ln[0], static_cast<int64_t>(Ln[1])});
          return LinesOk && Guard.chargeFrame();
        });
        uint32_t Count = static_cast<uint32_t>(T.Lines.size() - FirstLine);
        if (Count == 0 && Ok)
          Guard.chargeFrame();
        if (Guard.exceeded())
          return stop(Guard.error());
        if (!LinesOk)
          return stop("malformed Line");
        if (!Ok)
          return stop("malformed Location");
        T.Locations.push_back(
            {L[0], L[1], L[2], static_cast<uint32_t>(FirstLine), Count});
        break;
      }
      case pprof::FFunction: {
        uint64_t F[5] = {};
        if (!readMessage(R.bytes(), F))
          return stop("malformed Function");
        if (!Guard.chargeAlloc(sizeof(pprof::Function)))
          return stop(Guard.error());
        T.Functions.push_back(
            {F[0], static_cast<int64_t>(F[1]), static_cast<int64_t>(F[2]),
             static_cast<int64_t>(F[3]), static_cast<int64_t>(F[4])});
        break;
      }
      case pprof::FStringTable: {
        std::string_view S = R.bytes();
        if (!Guard.chargeString(S.size()))
          return stop(Guard.error());
        T.Strings.push_back(S);
        break;
      }
      case pprof::FTimeNanos:
      case pprof::FDurationNanos:
      case pprof::FPeriod:
      case pprof::FDefaultSampleType:
        (void)R.varint();
        break;
      default:
        R.skip();
      }
    }
    if (R.failed())
      return stop("malformed pprof Profile message");
    return true;
  }

  bool stop(std::string Message) {
    Fault = std::move(Message);
    return false;
  }

  /// Registers the metrics, then interns every location's frames in
  /// table order (duplicate ids included) as one root-first run each.
  void internTables() {
    for (const pprof::ValueType &VT : T.SampleTypes) {
      std::string_view TypeText = T.text(VT.Type);
      std::string_view UnitText = T.text(VT.Unit);
      Metrics.push_back(B.addMetric(TypeText.empty() ? "samples" : TypeText,
                                    mapUnit(UnitText)));
      Scales.push_back(unitScale(UnitText));
    }
    size_t StringBytes = 0;
    for (std::string_view S : T.Strings)
      StringBytes += S.size();
    B.reserveStrings(T.Strings.size(), StringBytes);
    B.reserve(0, T.Lines.size() + T.Locations.size());

    IdIndex MappingIds(T.Mappings);
    IdIndex FunctionIds(T.Functions);
    RunBegin.reserve(T.Locations.size() + 1);
    Runs.reserve(T.Lines.size() + T.Locations.size());
    for (const LocationRow &L : T.Locations) {
      RunBegin.push_back(static_cast<uint32_t>(Runs.size()));
      std::string_view Module;
      if (uint32_t M = MappingIds.find(L.MappingId); M != IdIndex::None)
        Module = T.text(T.Mappings[M].Filename);
      if (L.LineCount == 0) {
        // No symbol information: synthesize a frame from the address.
        char Buffer[32];
        std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                      static_cast<unsigned long long>(L.Address));
        Runs.push_back(B.functionFrame(Buffer, "", 0, Module, L.Address));
        continue;
      }
      // pprof stores inline frames innermost-first; emit outermost-first.
      for (uint32_t I = L.LineCount; I > 0; --I) {
        const pprof::Line &Ln = T.Lines[L.FirstLine + I - 1];
        std::string_view Name = "??";
        std::string_view File;
        if (uint32_t F = FunctionIds.find(Ln.FunctionId); F != IdIndex::None) {
          Name = T.text(T.Functions[F].Name);
          File = T.text(T.Functions[F].Filename);
        }
        Runs.push_back(B.functionFrame(
            Name, File,
            Ln.LineNumber > 0 ? static_cast<uint32_t>(Ln.LineNumber) : 0,
            Module, L.Address));
      }
    }
    RunBegin.push_back(static_cast<uint32_t>(Runs.size()));
  }

  /// Pass two: every sample, in wire order, into the builder.
  bool buildSamples() {
    IdIndex LocationIds(T.Locations);
    // Every location adds at least one frame, so a sample with more
    // locations than the depth budget is refused before it is walked.
    const size_t MaxDepth = Guard.limits().MaxTreeDepth;
    SampleBuffer Sample(MaxDepth, Metrics.size());
    const std::vector<uint64_t> &Ids = Sample.Ids;
    // The previous sample's path, root first: each location id with the
    // node and the depth reached after its frames.
    struct Step {
      uint64_t Id;
      NodeId Node;
      size_t Depth;
    };
    std::vector<Step> Prev;
    ProtoReader R(Bytes);
    while (R.next()) {
      if (R.fieldNumber() != pprof::FSample)
        continue;
      if (const char *Bad = Sample.decode(R.bytes()))
        return stop(Bad);
      if (Sample.DroppedIds &&
          !Guard.checkDepth(Ids.size() + Sample.DroppedIds))
        return stop(Guard.error());
      size_t N = Ids.size();
      size_t Common = 0;
      while (Common < std::min(N, Prev.size()) &&
             Prev[Common].Id == Ids[N - 1 - Common])
        ++Common;
      Prev.resize(Common);
      NodeId Cur = Common ? Prev.back().Node : B.root();
      size_t Depth = Common ? Prev.back().Depth : 0;
      for (size_t K = Common; K < N; ++K) {
        uint64_t Id = Ids[N - 1 - K];
        uint32_t Loc = LocationIds.find(Id);
        if (Loc == IdIndex::None)
          return stop("sample references unknown location id " +
                      std::to_string(Id));
        Depth += RunBegin[Loc + 1] - RunBegin[Loc];
        if (Depth > MaxDepth && !Guard.checkDepth(Depth))
          return stop(Guard.error());
        for (uint32_t F = RunBegin[Loc]; F < RunBegin[Loc + 1]; ++F) {
          size_t Before = B.nodeCount();
          Cur = B.child(Cur, Runs[F]);
          if (B.nodeCount() != Before && !Guard.chargeNode())
            return stop(Guard.error());
        }
        Prev.push_back({Id, Cur, Depth});
      }
      for (size_t M = 0; M < Sample.Values.size(); ++M)
        if (Sample.Values[M] != 0)
          B.addValue(Cur, Metrics[M],
                     static_cast<double>(Sample.Values[M]) * Scales[M]);
    }
    return true;
  }

  /// The error to report: a tripped budget; else the first malformed
  /// sample among the first \p Samples on the wire, because pprof::read
  /// parses each sample as it reaches it, before the fault pass one
  /// stopped at and before any check that follows the parse; else Fault.
  Error firstFault(size_t Samples) {
    if (Guard.exceeded())
      return makeError(Guard.error());
    SampleBuffer Sample(Guard.limits().MaxTreeDepth, 0);
    ProtoReader R(Bytes);
    for (size_t Seen = 0; Seen < Samples && R.next();) {
      if (R.fieldNumber() != pprof::FSample)
        continue;
      if (const char *Bad = Sample.decode(R.bytes()))
        return makeError(Bad);
      ++Seen;
    }
    return makeError(Fault);
  }

  Error fail(std::string Message) {
    Fault = std::move(Message);
    return firstFault(SIZE_MAX);
  }

  std::string_view Bytes;
  ResourceGuard Guard;
  ProfileBuilder B;
  Tables T;
  size_t SamplesSeen = 0; ///< Sample fields pass one walked past.
  std::string Fault; ///< The first fault pass one or two stopped at.

  std::vector<MetricId> Metrics;
  std::vector<double> Scales;
  /// Location row L's frames are Runs[RunBegin[L] .. RunBegin[L + 1]).
  std::vector<FrameId> Runs;
  std::vector<uint32_t> RunBegin;
};

} // namespace

Result<Profile> fromPprof(std::string_view Bytes, const DecodeLimits &Limits) {
  return PprofDecoder(Bytes, Limits).run();
}

} // namespace convert
} // namespace ev
