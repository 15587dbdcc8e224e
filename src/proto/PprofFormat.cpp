//===- proto/PprofFormat.cpp - pprof profile.proto codec ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/PprofFormat.h"

#include "support/ProtoWire.h"

namespace ev {
namespace pprof {

int64_t PprofProfile::intern(std::string_view Text) {
  if (StringTable.empty())
    StringTable.emplace_back("");
  for (size_t I = 0; I < StringTable.size(); ++I)
    if (StringTable[I] == Text)
      return static_cast<int64_t>(I);
  StringTable.emplace_back(Text);
  return static_cast<int64_t>(StringTable.size() - 1);
}

std::string_view PprofProfile::text(int64_t Id) const {
  if (Id < 0 || static_cast<size_t>(Id) >= StringTable.size())
    return {};
  return StringTable[static_cast<size_t>(Id)];
}

namespace {

std::string encodeValueType(const ValueType &VT) {
  ProtoWriter W;
  if (VT.Type)
    W.writeInt64(1, VT.Type);
  if (VT.Unit)
    W.writeInt64(2, VT.Unit);
  return W.takeBuffer();
}

std::string encodeSample(const Sample &S) {
  ProtoWriter W;
  if (!S.LocationIds.empty())
    W.writePackedVarints(1, S.LocationIds.data(), S.LocationIds.size());
  if (!S.Values.empty()) {
    std::vector<uint64_t> Raw(S.Values.size());
    for (size_t I = 0; I < S.Values.size(); ++I)
      Raw[I] = static_cast<uint64_t>(S.Values[I]);
    W.writePackedVarints(2, Raw.data(), Raw.size());
  }
  for (const Label &L : S.Labels) {
    ProtoWriter LW;
    if (L.Key)
      LW.writeInt64(1, L.Key);
    if (L.Str)
      LW.writeInt64(2, L.Str);
    if (L.Num)
      LW.writeInt64(3, L.Num);
    if (L.NumUnit)
      LW.writeInt64(4, L.NumUnit);
    W.writeBytes(3, LW.buffer());
  }
  return W.takeBuffer();
}

std::string encodeMapping(const Mapping &M) {
  ProtoWriter W;
  W.writeVarint(1, M.Id);
  if (M.MemoryStart)
    W.writeVarint(2, M.MemoryStart);
  if (M.MemoryLimit)
    W.writeVarint(3, M.MemoryLimit);
  if (M.FileOffset)
    W.writeVarint(4, M.FileOffset);
  if (M.Filename)
    W.writeInt64(5, M.Filename);
  if (M.BuildId)
    W.writeInt64(6, M.BuildId);
  return W.takeBuffer();
}

std::string encodeLocation(const Location &L) {
  ProtoWriter W;
  W.writeVarint(1, L.Id);
  if (L.MappingId)
    W.writeVarint(2, L.MappingId);
  if (L.Address)
    W.writeVarint(3, L.Address);
  for (const Line &Ln : L.Lines) {
    ProtoWriter LW;
    if (Ln.FunctionId)
      LW.writeVarint(1, Ln.FunctionId);
    if (Ln.LineNumber)
      LW.writeInt64(2, Ln.LineNumber);
    W.writeBytes(4, LW.buffer());
  }
  return W.takeBuffer();
}

std::string encodeFunction(const Function &F) {
  ProtoWriter W;
  W.writeVarint(1, F.Id);
  if (F.Name)
    W.writeInt64(2, F.Name);
  if (F.SystemName)
    W.writeInt64(3, F.SystemName);
  if (F.Filename)
    W.writeInt64(4, F.Filename);
  if (F.StartLine)
    W.writeInt64(5, F.StartLine);
  return W.takeBuffer();
}

/// Decodes either a packed run of varints or a single unpacked varint into
/// \p Out, following protobuf's dual encoding for repeated scalar fields.
bool readRepeatedVarint(ProtoReader &R, std::vector<uint64_t> &Out) {
  if (R.wireType() == WireType::LengthDelimited) {
    std::string_view Packed = R.bytes();
    VarintReader VR(Packed.data(), Packed.size());
    while (!VR.atEnd() && !VR.failed())
      Out.push_back(VR.readVarint());
    return !VR.failed();
  }
  Out.push_back(R.varint());
  return true;
}

Result<ValueType> decodeValueType(std::string_view Bytes) {
  ValueType VT;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case 1:
      VT.Type = R.int64();
      break;
    case 2:
      VT.Unit = R.int64();
      break;
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed ValueType");
  return VT;
}

} // namespace

std::string write(const PprofProfile &P) {
  ProtoWriter W;
  for (const ValueType &VT : P.SampleTypes)
    W.writeBytes(FSampleType, encodeValueType(VT));
  for (const Sample &S : P.Samples)
    W.writeBytes(FSample, encodeSample(S));
  for (const Mapping &M : P.Mappings)
    W.writeBytes(FMapping, encodeMapping(M));
  for (const Location &L : P.Locations)
    W.writeBytes(FLocation, encodeLocation(L));
  for (const Function &F : P.Functions)
    W.writeBytes(FFunction, encodeFunction(F));
  for (const std::string &S : P.StringTable)
    W.writeBytes(FStringTable, S);
  if (P.TimeNanos)
    W.writeInt64(FTimeNanos, P.TimeNanos);
  if (P.DurationNanos)
    W.writeInt64(FDurationNanos, P.DurationNanos);
  if (P.PeriodType.Type || P.PeriodType.Unit)
    W.writeBytes(FPeriodType, encodeValueType(P.PeriodType));
  if (P.Period)
    W.writeInt64(FPeriod, P.Period);
  if (P.DefaultSampleType)
    W.writeInt64(FDefaultSampleType, P.DefaultSampleType);
  return W.takeBuffer();
}

Result<PprofProfile> read(std::string_view Bytes) {
  PprofProfile P;
  ProtoReader R(Bytes);
  while (R.next()) {
    switch (R.fieldNumber()) {
    case FSampleType: {
      Result<ValueType> VT = decodeValueType(R.bytes());
      if (!VT)
        return makeError(VT.error());
      P.SampleTypes.push_back(*VT);
      break;
    }
    case FSample: {
      Sample S;
      ProtoReader SR(R.bytes());
      while (SR.next()) {
        switch (SR.fieldNumber()) {
        case 1:
          if (!readRepeatedVarint(SR, S.LocationIds))
            return makeError("malformed sample location ids");
          break;
        case 2: {
          std::vector<uint64_t> Raw;
          if (!readRepeatedVarint(SR, Raw))
            return makeError("malformed sample values");
          for (uint64_t V : Raw)
            S.Values.push_back(static_cast<int64_t>(V));
          break;
        }
        case 3: {
          Label L;
          ProtoReader LR(SR.bytes());
          while (LR.next()) {
            switch (LR.fieldNumber()) {
            case 1:
              L.Key = LR.int64();
              break;
            case 2:
              L.Str = LR.int64();
              break;
            case 3:
              L.Num = LR.int64();
              break;
            case 4:
              L.NumUnit = LR.int64();
              break;
            default:
              LR.skip();
            }
          }
          if (LR.failed())
            return makeError("malformed Label");
          S.Labels.push_back(L);
          break;
        }
        default:
          SR.skip();
        }
      }
      if (SR.failed())
        return makeError("malformed Sample");
      P.Samples.push_back(std::move(S));
      break;
    }
    case FMapping: {
      Mapping M;
      ProtoReader MR(R.bytes());
      while (MR.next()) {
        switch (MR.fieldNumber()) {
        case 1:
          M.Id = MR.varint();
          break;
        case 2:
          M.MemoryStart = MR.varint();
          break;
        case 3:
          M.MemoryLimit = MR.varint();
          break;
        case 4:
          M.FileOffset = MR.varint();
          break;
        case 5:
          M.Filename = MR.int64();
          break;
        case 6:
          M.BuildId = MR.int64();
          break;
        default:
          MR.skip();
        }
      }
      if (MR.failed())
        return makeError("malformed Mapping");
      P.Mappings.push_back(M);
      break;
    }
    case FLocation: {
      Location L;
      ProtoReader LR(R.bytes());
      while (LR.next()) {
        switch (LR.fieldNumber()) {
        case 1:
          L.Id = LR.varint();
          break;
        case 2:
          L.MappingId = LR.varint();
          break;
        case 3:
          L.Address = LR.varint();
          break;
        case 4: {
          Line Ln;
          ProtoReader LnR(LR.bytes());
          while (LnR.next()) {
            switch (LnR.fieldNumber()) {
            case 1:
              Ln.FunctionId = LnR.varint();
              break;
            case 2:
              Ln.LineNumber = LnR.int64();
              break;
            default:
              LnR.skip();
            }
          }
          if (LnR.failed())
            return makeError("malformed Line");
          L.Lines.push_back(Ln);
          break;
        }
        default:
          LR.skip();
        }
      }
      if (LR.failed())
        return makeError("malformed Location");
      P.Locations.push_back(std::move(L));
      break;
    }
    case FFunction: {
      Function F;
      ProtoReader FR(R.bytes());
      while (FR.next()) {
        switch (FR.fieldNumber()) {
        case 1:
          F.Id = FR.varint();
          break;
        case 2:
          F.Name = FR.int64();
          break;
        case 3:
          F.SystemName = FR.int64();
          break;
        case 4:
          F.Filename = FR.int64();
          break;
        case 5:
          F.StartLine = FR.int64();
          break;
        default:
          FR.skip();
        }
      }
      if (FR.failed())
        return makeError("malformed Function");
      P.Functions.push_back(F);
      break;
    }
    case FStringTable:
      P.StringTable.emplace_back(R.bytes());
      break;
    case FTimeNanos:
      P.TimeNanos = R.int64();
      break;
    case FDurationNanos:
      P.DurationNanos = R.int64();
      break;
    case FPeriodType: {
      Result<ValueType> VT = decodeValueType(R.bytes());
      if (!VT)
        return makeError(VT.error());
      P.PeriodType = *VT;
      break;
    }
    case FPeriod:
      P.Period = R.int64();
      break;
    case FDefaultSampleType:
      P.DefaultSampleType = R.int64();
      break;
    default:
      R.skip();
    }
  }
  if (R.failed())
    return makeError("malformed pprof Profile message");
  if (P.StringTable.empty())
    P.StringTable.emplace_back("");
  if (!P.StringTable[0].empty())
    return makeError("pprof string_table[0] must be empty");
  return P;
}

} // namespace pprof
} // namespace ev
