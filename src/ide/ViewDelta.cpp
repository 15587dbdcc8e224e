//===- ide/ViewDelta.cpp - Column deltas between two view tables ----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/ViewDelta.h"

#include "support/ProtoWire.h"
#include "support/Varint.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>

namespace ev {

namespace {

// ViewDelta message fields.
enum : uint32_t {
  FVersion = 1, // varint, currently 2
  FFromGen = 2, // varint
  FToGen = 3,   // varint
  FKind = 4,    // varint: the ViewKind both tables share
  FOrder = 5,   // bytes: packed varint node ids of the new rows, in order
  FColumn = 6,  // repeated bytes (column patch)
  FScalar = 7,  // repeated bytes (scalar patch)
};

// Column patch fields.
enum : uint32_t {
  FColField = 1,     // varint: index into the view's schema, never 0
  FColRuns = 2,      // bytes: packed varint pairs, one per run of
                     // consecutive positions: the positions skipped since
                     // the previous run, and the run's length
  FColValues = 3,    // bytes: one value per position, packed by field type
};

// Scalar patch fields.
enum : uint32_t {
  FScalarName = 1, // bytes
  FScalarJson = 2, // bytes: compact JSON of the new value
};

constexpr uint64_t DeltaVersion = 2;
constexpr size_t NoRow = SIZE_MAX;

uint64_t bitsOf(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

/// Maps each node id of \p T to its row. \returns false when two rows
/// share an id.
bool rowsById(const ViewTable &T, std::unordered_map<int64_t, size_t> &Out) {
  const std::vector<int64_t> &Ids = T.Columns[0].Ints;
  Out.reserve(Ids.size());
  for (size_t R = 0; R < Ids.size(); ++R)
    if (!Out.emplace(Ids[R], R).second)
      return false;
  return true;
}

/// The row of \p Base holding each node id of \p Next, NoRow for a new
/// row. \returns false when two rows of \p Base share an id.
bool baseRows(const ViewTable &Base, const ViewTable &Next,
              std::vector<size_t> &From) {
  std::unordered_map<int64_t, size_t> Row;
  bool Distinct = rowsById(Base, Row);
  const std::vector<int64_t> &Ids = Next.Columns[0].Ints;
  From.assign(Ids.size(), NoRow);
  for (size_t P = 0; P < Ids.size(); ++P)
    if (auto It = Row.find(Ids[P]); It != Row.end())
      From[P] = It->second;
  return Distinct;
}

/// Doubles compare by bits, so a NaN is unchanged and a flipped sign of
/// zero is sent.
bool sameValue(FieldType T, const ViewTable::Column &A, size_t I,
               const ViewTable::Column &B, size_t J) {
  switch (T) {
  case FieldType::Double:
    return bitsOf(A.Doubles[I]) == bitsOf(B.Doubles[J]);
  case FieldType::String:
    return A.Strings[I] == B.Strings[J];
  default:
    return A.Ints[I] == B.Ints[J];
  }
}

void copyValue(FieldType T, const ViewTable::Column &From, size_t I,
               ViewTable::Column &To, size_t J) {
  switch (T) {
  case FieldType::Double:
    To.Doubles[J] = From.Doubles[I];
    break;
  case FieldType::String:
    To.Strings[J] = From.Strings[I];
    break;
  default:
    To.Ints[J] = From.Ints[I];
  }
}

void appendValue(std::string &Out, FieldType T, const ViewTable::Column &C,
                 size_t I) {
  switch (T) {
  case FieldType::Int:
    appendSignedVarint(Out, C.Ints[I]);
    break;
  case FieldType::Bool:
    appendVarint(Out, C.Ints[I] != 0);
    break;
  case FieldType::Double:
    for (unsigned B = 0; B < 8; ++B)
      Out.push_back(static_cast<char>(bitsOf(C.Doubles[I]) >> (8 * B)));
    break;
  case FieldType::String:
    appendVarint(Out, C.Strings[I].size());
    Out += C.Strings[I];
    break;
  }
}

/// Reads one value of type \p T into row \p I of \p C. \returns false when
/// \p R holds no further well-formed value.
bool readValue(VarintReader &R, FieldType T, ViewTable::Column &C, size_t I) {
  switch (T) {
  case FieldType::Int:
    C.Ints[I] = R.readSignedVarint();
    break;
  case FieldType::Bool:
    C.Ints[I] = R.readVarint() != 0;
    break;
  case FieldType::Double: {
    if (R.remaining() < 8)
      return false;
    uint64_t Bits = 0;
    for (unsigned B = 0; B < 8; ++B)
      Bits |= static_cast<uint64_t>(R.current()[B]) << (8 * B);
    R.skip(8);
    std::memcpy(&C.Doubles[I], &Bits, sizeof(Bits));
    break;
  }
  case FieldType::String: {
    uint64_t Size = R.readVarint();
    if (R.failed() || Size > R.remaining())
      return false;
    C.Strings[I].assign(reinterpret_cast<const char *>(R.current()), Size);
    R.skip(Size);
    break;
  }
  }
  return !R.failed();
}

} // namespace

std::string encodeViewDelta(const ViewTable &Base, const ViewTable &Next,
                            uint64_t FromGen, uint64_t ToGen,
                            ViewDeltaStats *Stats) {
  assert(Base.Kind == Next.Kind && "a delta relates two tables of one view");
  ViewDeltaStats Local;
  ProtoWriter W;
  W.writeVarint(FVersion, DeltaVersion);
  W.writeVarint(FFromGen, FromGen);
  W.writeVarint(FToGen, ToGen);
  W.writeVarint(FKind, static_cast<uint64_t>(Next.Kind));

  const std::vector<int64_t> &Ids = Next.Columns[0].Ints;
  std::vector<size_t> From;
  baseRows(Base, Next, From);
  std::string Order;
  for (int64_t Id : Ids)
    appendVarint(Order, static_cast<uint64_t>(Id));
  Local.RowsAdded = std::count(From.begin(), From.end(), NoRow);
  Local.RowsRemoved = Base.rowCount() - (Ids.size() - Local.RowsAdded);
  W.writeBytes(FOrder, Order);

  std::span<const ViewField> Fields = Next.schema().Fields;
  for (size_t F = 1; F < Fields.size(); ++F) {
    std::string Runs, Values;
    // The open run [Start, Start + Length), and one past the last written.
    size_t Start = 0, Length = 0, After = 0;
    auto Flush = [&] {
      if (Length == 0)
        return;
      appendVarint(Runs, Start - After);
      appendVarint(Runs, Length);
      After = Start + Length;
      Length = 0;
    };
    for (size_t P = 0; P < Ids.size(); ++P) {
      if (From[P] != NoRow && sameValue(Fields[F].Type, Base.Columns[F],
                                        From[P], Next.Columns[F], P))
        continue;
      if (P != Start + Length) {
        Flush();
        Start = P;
      }
      ++Length;
      appendValue(Values, Fields[F].Type, Next.Columns[F], P);
      ++Local.ValuesPatched;
    }
    Flush();
    if (Runs.empty())
      continue;
    ProtoWriter C;
    C.writeVarint(FColField, F);
    C.writeBytes(FColRuns, Runs);
    C.writeBytes(FColValues, Values);
    W.writeBytes(FColumn, C.buffer());
    ++Local.ColumnsPatched;
  }

  for (size_t I = 0; I < Next.Scalars.size(); ++I) {
    const auto &[Name, V] = Next.Scalars[I];
    std::string Text = V.dump();
    if (I < Base.Scalars.size() && Base.Scalars[I].first == Name &&
        Base.Scalars[I].second.dump() == Text)
      continue;
    ProtoWriter S;
    S.writeBytes(FScalarName, Name);
    S.writeBytes(FScalarJson, Text);
    W.writeBytes(FScalar, S.buffer());
    ++Local.ScalarsPatched;
  }

  if (Stats)
    *Stats = Local;
  return W.takeBuffer();
}

Result<ViewTable> applyViewDelta(const ViewTable &Base,
                                 std::string_view Delta) {
  uint64_t Version = 0, Kind = 0;
  std::string_view Order;
  std::vector<std::string_view> Columns, Scalars;
  ProtoReader R(Delta);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FVersion:
      Version = R.varint();
      break;
    case FKind:
      Kind = R.varint();
      break;
    case FOrder:
      Order = R.bytes();
      break;
    case FColumn:
      Columns.push_back(R.bytes());
      break;
    case FScalar:
      Scalars.push_back(R.bytes());
      break;
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed view delta message");
  if (Version != DeltaVersion)
    return makeError("unsupported view delta version " +
                     std::to_string(Version));
  if (Kind != static_cast<uint64_t>(Base.Kind))
    return makeError("view delta is for another view");

  ViewTable Next(Base.Kind);
  Next.Scalars = Base.Scalars;
  Next.RowsAt = Base.RowsAt;
  std::vector<int64_t> &Ids = Next.Columns[0].Ints;
  VarintReader OrderR(Order.data(), Order.size());
  while (!OrderR.atEnd() && !OrderR.failed())
    Ids.push_back(static_cast<int64_t>(OrderR.readVarint()));
  std::unordered_map<int64_t, size_t> NextRow;
  if (OrderR.failed() || !rowsById(Next, NextRow))
    return makeError("malformed row order in view delta");
  std::vector<size_t> From;
  if (!baseRows(Base, Next, From))
    return makeError("view delta base has duplicate node ids");

  // Base rows keep their values; Known marks every value set so far, and
  // the column patches must complete the new rows.
  std::span<const ViewField> Fields = Base.schema().Fields;
  size_t N = Ids.size();
  std::vector<uint8_t> Known(N * Fields.size(), 0);
  for (size_t F = 1; F < Fields.size(); ++F) {
    ViewTable::Column &C = Next.Columns[F];
    FieldType T = Fields[F].Type;
    if (T == FieldType::Double)
      C.Doubles.resize(N);
    else if (T == FieldType::String)
      C.Strings.resize(N);
    else
      C.Ints.resize(N);
    for (size_t P = 0; P < N; ++P)
      if (From[P] != NoRow) {
        copyValue(T, Base.Columns[F], From[P], C, P);
        Known[F * N + P] = 1;
      }
  }

  for (std::string_view Patch : Columns) {
    uint64_t F = 0;
    std::string_view Runs, Values;
    ProtoReader CR(Patch);
    while (CR.next()) {
      switch (CR.fieldNumber()) {
      case FColField:
        F = CR.varint();
        break;
      case FColRuns:
        Runs = CR.bytes();
        break;
      case FColValues:
        Values = CR.bytes();
        break;
      default:
        CR.skip();
      }
    }
    if (CR.failed())
      return makeError("malformed column patch in view delta");
    if (F == 0 || F >= Fields.size())
      return makeError("view delta column " + std::to_string(F) +
                       " is not a field of the view");
    VarintReader RunR(Runs.data(), Runs.size());
    VarintReader ValR(Values.data(), Values.size());
    size_t After = 0; // One past the previous run.
    while (!RunR.atEnd()) {
      uint64_t Skip = RunR.readVarint(), Length = RunR.readVarint();
      if (RunR.failed() || Skip > N - After || Length > N - After - Skip)
        return makeError("view delta position past the row order");
      for (After += Skip; Length--; ++After) {
        if (!readValue(ValR, Fields[F].Type, Next.Columns[F], After))
          return makeError("view delta column has fewer values than "
                           "positions");
        Known[F * N + After] = 1;
      }
    }
    if (!ValR.atEnd())
      return makeError("view delta column has more values than positions");
  }
  for (size_t F = 1; F < Fields.size(); ++F)
    for (size_t P = 0; P < N; ++P)
      if (!Known[F * N + P])
        return makeError("view delta row for node " +
                         std::to_string(Ids[P]) + " has no '" +
                         std::string(Fields[F].Name) + "'");

  for (std::string_view Patch : Scalars) {
    std::string_view Name, Text;
    ProtoReader SR(Patch);
    while (SR.next()) {
      if (SR.fieldNumber() == FScalarName)
        Name = SR.bytes();
      else if (SR.fieldNumber() == FScalarJson)
        Text = SR.bytes();
      else
        SR.skip();
    }
    auto It = std::find_if(Next.Scalars.begin(), Next.Scalars.end(),
                           [&](const auto &S) { return S.first == Name; });
    if (SR.failed() || It == Next.Scalars.end())
      return makeError("view delta sets no member of the view");
    Result<json::Value> V = json::parse(Text);
    if (!V)
      return makeError("view delta member '" + It->first + "': " + V.error());
    It->second = V.take();
  }
  return Next;
}

Result<std::pair<uint64_t, uint64_t>>
peekViewDeltaGenerations(std::string_view Delta) {
  uint64_t From = 0, To = 0;
  ProtoReader R(Delta);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FFromGen:
      From = R.varint();
      break;
    case FToGen:
      To = R.varint();
      break;
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed view delta message");
  return std::make_pair(From, To);
}

} // namespace ev
