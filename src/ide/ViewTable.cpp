//===- ide/ViewTable.cpp - Typed rows of the flame and tree-table views ---===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/ViewTable.h"

#include <limits>

namespace ev {

std::string ViewTable::write() const {
  const ViewSchema &S = schema();
  // Each field's text up to its value: `{"node":` for the first field of a
  // row, `,"depth":` for the others.
  std::vector<std::string> Prefix;
  for (const ViewField &F : S.Fields) {
    Prefix.emplace_back(Prefix.empty() ? "{" : ",");
    json::appendString(Prefix.back(), F.Name);
    Prefix.back().push_back(':');
  }
  std::string Out = "{";
  Out.reserve(64 * rowCount() + 256);
  auto Key = [&Out](std::string_view Name) {
    if (Out.size() > 1)
      Out.push_back(',');
    json::appendString(Out, Name);
    Out.push_back(':');
  };
  for (size_t M = 0; M <= Scalars.size(); ++M) {
    if (M == RowsAt) {
      Key(S.RowsKey);
      Out.push_back('[');
      for (size_t R = 0; R < rowCount(); ++R) {
        if (R != 0)
          Out.push_back(',');
        for (size_t F = 0; F < S.Fields.size(); ++F) {
          Out += Prefix[F];
          const Column &C = Columns[F];
          switch (S.Fields[F].Type) {
          case FieldType::Int:
            json::appendInt(Out, C.Ints[R]);
            break;
          case FieldType::Double:
            json::appendNumber(Out, C.Doubles[R]);
            break;
          case FieldType::String:
            json::appendString(Out, C.Strings[R]);
            break;
          case FieldType::Bool:
            Out += C.Ints[R] ? "true" : "false";
            break;
          }
        }
        Out.push_back('}');
      }
      Out.push_back(']');
    }
    if (M == Scalars.size())
      break;
    Key(Scalars[M].first);
    Scalars[M].second.dump(Out);
  }
  Out.push_back('}');
  return Out;
}

Result<ViewTable> ViewTable::read(const json::Value &Reply) {
  if (Reply.isSerialized()) {
    Result<json::Value> Doc = json::parse(*Reply.serializedText());
    if (!Doc)
      return makeError("view reply: " + Doc.error());
    return read(*Doc);
  }
  if (!Reply.isObject())
    return makeError("view reply is not an object");
  const json::Object &O = Reply.asObject();
  bool Flame = O.contains(ViewSchemas[0].RowsKey);
  if (!Flame && !O.contains(ViewSchemas[1].RowsKey))
    return makeError("view reply has no 'rects' or 'rows' member");
  ViewTable T(Flame ? ViewKind::Flame : ViewKind::TreeTable);
  const ViewSchema &S = T.schema();
  for (const auto &[Name, V] : O) {
    if (Name != S.RowsKey) {
      T.addScalar(Name, V);
      continue;
    }
    T.rowsHere();
    if (!V.isArray())
      return makeError("view reply's '" + std::string(S.RowsKey) +
                       "' is not an array");
    for (const json::Value &Row : V.asArray()) {
      if (!Row.isObject() || Row.asObject().size() != S.Fields.size())
        return makeError("view row does not have the view's fields");
      size_t F = 0;
      for (const auto &[Field, FV] : Row.asObject()) {
        Column &C = T.Columns[F];
        int64_t N = 0;
        bool Ok = Field == S.Fields[F].Name;
        switch (S.Fields[F++].Type) {
        case FieldType::Int:
          Ok = Ok && FV.getInteger(N);
          C.Ints.push_back(N);
          break;
        case FieldType::Double:
          // dump() writes NaN and the infinities as null.
          Ok = Ok && (FV.isNumber() || FV.isNull());
          C.Doubles.push_back(FV.numberOr(
              std::numeric_limits<double>::quiet_NaN()));
          break;
        case FieldType::String:
          Ok = Ok && FV.isString();
          C.Strings.emplace_back(FV.stringOr(""));
          break;
        case FieldType::Bool:
          Ok = Ok && FV.isBool();
          C.Ints.push_back(FV.boolOr(false));
          break;
        }
        if (!Ok)
          return makeError("view row field '" + Field +
                           "' is not the view's field or type");
      }
    }
  }
  return T;
}

} // namespace ev
