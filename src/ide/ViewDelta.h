//===- ide/ViewDelta.h - Column deltas between two view tables ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delta codec behind pvp/subscribe. Instead of the whole pvp/flame or
/// pvp/treeTable reply, a subscriber is sent the change from the view it
/// acknowledged to the current one, as two ViewTables (ide/ViewTable.h)
/// of the same view and parameters differ.
///
/// Rows are keyed by node id. A delta carries the new row order as packed
/// node ids; a row of the base keeps its values unless a column says
/// otherwise. For each column it carries the runs of positions (in the new
/// order) whose value changed or whose row is new, and those values,
/// packed by the column's type: zigzag varints, varint booleans,
/// little-endian doubles or length-prefixed strings. Changed top-level
/// members travel as their JSON text. The schema is the view's own, so
/// nothing else is sent: after an append, a flame pays 8 bytes a rect for
/// each of x and width, which every rect changes, and nothing for an
/// unchanged name. docs/PVP.md "Delta wire format" lists the fields.
///
/// The contract the subscribe suite pins: the applied table writes exactly
/// the bytes of the table the delta was encoded from, so a client that
/// applies deltas and one that re-queries never diverge.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_VIEWDELTA_H
#define EASYVIEW_IDE_VIEWDELTA_H

#include "ide/ViewTable.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace ev {

/// What a delta carries.
struct ViewDeltaStats {
  size_t RowsAdded = 0;   ///< Rows only in the new table.
  size_t RowsRemoved = 0; ///< Rows only in the base table.
  size_t ColumnsPatched = 0;
  size_t ValuesPatched = 0; ///< Column values sent, over every column.
  size_t ScalarsPatched = 0;
};

/// Encodes the change from \p Base to \p Next: two tables of the same view
/// with the same top-level members, each keying its rows by distinct node
/// ids. \p FromGen and \p ToGen are the profile generations the two were
/// computed at; they travel in the delta so the client can detect replays.
std::string encodeViewDelta(const ViewTable &Base, const ViewTable &Next,
                            uint64_t FromGen, uint64_t ToGen,
                            ViewDeltaStats *Stats = nullptr);

/// Applies \p Delta to \p Base. \returns the table the delta was encoded
/// from, or an error when the delta is malformed or does not fit \p Base.
Result<ViewTable> applyViewDelta(const ViewTable &Base,
                                 std::string_view Delta);

/// Reads the (fromGeneration, toGeneration) pair without applying.
Result<std::pair<uint64_t, uint64_t>>
peekViewDeltaGenerations(std::string_view Delta);

} // namespace ev

#endif // EASYVIEW_IDE_VIEWDELTA_H
