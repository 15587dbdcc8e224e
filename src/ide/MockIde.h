//===- ide/MockIde.h - In-process editor client for PVP -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mock editor that drives a PvpServer over the real JSON-RPC wire
/// framing, standing in for VSCode in tests, examples, and the user-study
/// simulator. It records the editor-side effects (files opened at lines,
/// hovers shown, lenses displayed) so test assertions and the simulator
/// can observe exactly what a user would see.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_IDE_MOCKIDE_H
#define EASYVIEW_IDE_MOCKIDE_H

#include "ide/PvpServer.h"

#include <string>
#include <vector>

namespace ev {

class MockIde {
public:
  explicit MockIde(ServerLimits Limits = {}) : Server(Limits) {}
  /// One code-link navigation performed by the editor.
  struct Navigation {
    std::string File;
    uint32_t Line = 0;
  };

  /// Sends \p Method with \p Params through the framed wire and \returns
  /// the decoded result object; RPC errors surface as Result errors.
  Result<json::Value> call(std::string_view Method, json::Object Params);

  /// Opens profile bytes; \returns the server-side profile id.
  Result<int64_t> openProfile(std::string_view Name, std::string_view Bytes);

  /// Clicks a flame-graph rectangle: performs the code-link action and, on
  /// success, records the navigation (the paper's mandatory action).
  Result<bool> clickNode(int64_t ProfileId, NodeId Node);

  /// Hovers a node; \returns the hover text.
  Result<std::string> hoverNode(int64_t ProfileId, NodeId Node);

  const std::vector<Navigation> &navigations() const { return Navigations; }
  size_t requestsSent() const { return RequestsSent; }

  /// Server-initiated frames (pvp/viewDelta, pvp/subscriptionEnd) that
  /// arrived on the wire after responses, in arrival order. Drained once.
  std::vector<json::Value> takeNotifications() {
    std::vector<json::Value> Out;
    Out.swap(Notifications);
    return Out;
  }

  PvpServer &server() { return Server; }
  const PvpServer &server() const { return Server; }

private:
  PvpServer Server;
  int64_t NextRequestId = 1;
  size_t RequestsSent = 0;
  std::vector<Navigation> Navigations;
  std::vector<json::Value> Notifications;
};

} // namespace ev

#endif // EASYVIEW_IDE_MOCKIDE_H
