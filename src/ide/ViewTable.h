//===- ide/ViewTable.h - Typed rows of the flame and tree-table views -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one representation of the two row-shaped PVP views, pvp/flame and
/// pvp/treeTable. A ViewTable holds the reply's top-level members other
/// than the rows, in reply order, and one typed column per field of the
/// view's fixed row schema. Handlers fill a table; the server writes its
/// reply text once and keeps it as a subscription's delta base, which
/// ide/ViewDelta.h diffs column by column. read() is the client's: it
/// rebuilds a table from a reply, and the server never calls it.
///
/// write() is byte-identical to dump() of the json::Value tree with the
/// same members: it formats with dump()'s own number, integer and string
/// formatters.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_VIEWTABLE_H
#define EASYVIEW_IDE_VIEWTABLE_H

#include "support/Json.h"
#include "support/Result.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ev {

/// The type of a row field and of its column.
enum class FieldType : uint8_t { Int, Double, String, Bool };

struct ViewField {
  std::string_view Name;
  FieldType Type;
};

/// The row-shaped views. Each has a fixed schema whose first field, "node",
/// keys the rows.
enum class ViewKind : uint8_t { Flame, TreeTable };

struct ViewSchema {
  std::string_view RowsKey; ///< The member holding the rows.
  std::span<const ViewField> Fields;
};

inline constexpr ViewField FlameFields[] = {
    {"node", FieldType::Int},      {"depth", FieldType::Int},
    {"x", FieldType::Double},      {"width", FieldType::Double},
    {"value", FieldType::Double},  {"name", FieldType::String},
    {"color", FieldType::String}};
inline constexpr ViewField TreeTableFields[] = {
    {"node", FieldType::Int},
    {"depth", FieldType::Int},
    {"name", FieldType::String},
    {"expandable", FieldType::Bool},
    {"expanded", FieldType::Bool}};
inline constexpr ViewSchema ViewSchemas[] = {{"rects", FlameFields},
                                             {"rows", TreeTableFields}};

struct ViewTable {
  /// One field across the rows: Int and Bool fields (as 0/1) fill Ints,
  /// Double fields Doubles, String fields Strings.
  struct Column {
    std::vector<int64_t> Ints;
    std::vector<double> Doubles;
    std::vector<std::string> Strings;

    template <typename T> void push(const T &V) {
      if constexpr (std::is_integral_v<T>)
        Ints.push_back(static_cast<int64_t>(V));
      else if constexpr (std::is_floating_point_v<T>)
        Doubles.push_back(V);
      else
        Strings.emplace_back(V);
    }
  };

  explicit ViewTable(ViewKind Kind)
      : Kind(Kind), Columns(schema().Fields.size()) {}

  const ViewSchema &schema() const {
    return ViewSchemas[static_cast<size_t>(Kind)];
  }
  size_t rowCount() const { return Columns[0].Ints.size(); }

  /// Appends a member; the rows follow the members added before rowsHere().
  void addScalar(std::string Name, json::Value V) {
    Scalars.emplace_back(std::move(Name), std::move(V));
  }
  void rowsHere() { RowsAt = Scalars.size(); }

  /// Appends one row, its values in schema order.
  template <typename... Ts> void addRow(const Ts &...Values) {
    assert(sizeof...(Ts) == Columns.size() && "one value per field");
    Column *C = Columns.data();
    (C++->push(Values), ...);
  }

  /// The reply text.
  std::string write() const;
  /// The reply as a json::Value holding write()'s text.
  json::Value reply() const { return json::Value::serialized(write()); }

  /// A client's rebuild of a table from a flame or tree-table reply,
  /// parsed or serialized. Fails when it lacks its view's schema.
  static Result<ViewTable> read(const json::Value &Reply);

  ViewKind Kind;
  /// The members other than the rows, in reply order.
  std::vector<std::pair<std::string, json::Value>> Scalars;
  /// The rows member follows the first RowsAt scalars.
  size_t RowsAt = 0;
  /// One per schema field; Columns[0] holds the node ids.
  std::vector<Column> Columns;
};

} // namespace ev

#endif // EASYVIEW_IDE_VIEWTABLE_H
