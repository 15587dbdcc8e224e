//===- examples/pvp_session.cpp - A Profile Viewer Protocol session -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows the editor-facing wire protocol: a client (here: this program,
/// standing in for a VSCode extension host) speaks Content-Length-framed
/// JSON-RPC to a PvpServer — open a profile, fetch the flame geometry,
/// perform the code-link / hover / code-lens / summary actions of paper
/// §VI-B.
///
//===----------------------------------------------------------------------===//

#include "ide/PvpServer.h"
#include "support/Strings.h"
#include "workload/SyntheticProfile.h"
#include "proto/EvProf.h"

#include <cstdio>

using namespace ev;

namespace {

/// Sends one framed request, prints the exchange, returns the result.
json::Value roundTrip(PvpServer &Server, int64_t Id, const char *Method,
                      json::Object Params) {
  json::Value Request = rpc::makeRequest(Id, Method, std::move(Params));
  std::string Wire = rpc::frame(Request);
  std::printf(">> %s\n", Request.dump().substr(0, 160).c_str());

  std::string ReplyBytes = Server.handleWire(Wire);
  rpc::FrameReader Reader;
  Reader.feed(ReplyBytes);
  auto Reply = Reader.poll();
  if (!Reply) {
    std::printf("<< (no reply)\n");
    return json::Value();
  }
  std::string Dump = Reply->dump();
  std::printf("<< %s%s\n\n", Dump.substr(0, 200).c_str(),
              Dump.size() > 200 ? "..." : "");
  if (Reply->isObject())
    if (const json::Value *R = Reply->asObject().find("result"))
      return *R;
  return json::Value();
}

} // namespace

int main() {
  PvpServer Server;

  // A small synthetic service profile, shipped as base64 .evprof bytes —
  // exactly what an extension would read from disk and hand over.
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 64 << 10;
  Profile P = workload::generateSyntheticProfile(Opt);
  std::string Bytes = writeEvProf(P);

  json::Object Open;
  Open.set("name", "orders-service.evprof");
  Open.set("dataBase64", base64Encode(Bytes));
  json::Value Opened = roundTrip(Server, 1, "pvp/open", std::move(Open));
  int64_t ProfileId = Opened.isObject() && Opened.asObject().find("profile")
                          ? Opened.asObject().find("profile")->asInt()
                          : -1;
  if (ProfileId < 0) {
    std::fprintf(stderr, "failed to open profile over PVP\n");
    return 1;
  }

  json::Object FlameParams;
  FlameParams.set("profile", ProfileId);
  FlameParams.set("maxRects", 8);
  json::Value Flame =
      roundTrip(Server, 2, "pvp/flame", std::move(FlameParams));

  // Pick the widest non-root rect and click it (code link).
  int64_t Node = -1;
  if (Flame.isObject())
    if (const json::Value *Rects = Flame.asObject().find("rects"))
      if (Rects->isArray() && Rects->asArray().size() > 1)
        Node = Rects->asArray()[1].asObject().find("node")->asInt();
  if (Node >= 0) {
    json::Object LinkParams;
    LinkParams.set("profile", ProfileId);
    LinkParams.set("node", Node);
    roundTrip(Server, 3, "pvp/codeLink", std::move(LinkParams));

    json::Object HoverParams;
    HoverParams.set("profile", ProfileId);
    HoverParams.set("node", Node);
    roundTrip(Server, 4, "pvp/hover", std::move(HoverParams));
  }

  json::Object SummaryParams;
  SummaryParams.set("profile", ProfileId);
  roundTrip(Server, 5, "pvp/summary", std::move(SummaryParams));

  // Error handling is part of the protocol, too.
  json::Object Bad;
  Bad.set("profile", 999);
  roundTrip(Server, 6, "pvp/summary", std::move(Bad));
  return 0;
}
