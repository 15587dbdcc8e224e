//===- ide/MockIde.cpp - In-process editor client for PVP -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/MockIde.h"

#include "support/Strings.h"

namespace ev {

Result<json::Value> MockIde::call(std::string_view Method,
                                  json::Object Params) {
  json::Value Request =
      rpc::makeRequest(NextRequestId++, Method, std::move(Params));
  ++RequestsSent;

  // Round-trip through the real wire framing so transport bugs surface in
  // every test that uses the mock.
  std::string WireOut = Server.handleWire(rpc::frame(Request));
  rpc::FrameReader Reader;
  Reader.feed(WireOut);
  auto Response = Reader.poll();
  if (!Response)
    return makeError("server produced no response");
  // The response frame comes first (the server guarantees the ordering);
  // anything after it on the same wire flush is a push.
  while (auto More = Reader.poll())
    Notifications.push_back(std::move(*More));
  if (!Response->isObject())
    return makeError("server response is not an object");
  const json::Object &Obj = Response->asObject();
  if (const json::Value *Err = Obj.find("error")) {
    std::string Message = "rpc error";
    if (Err->isObject())
      if (const json::Value *MV = Err->asObject().find("message"))
        Message = std::string(MV->stringOr("rpc error"));
    return makeError(Message);
  }
  const json::Value *ResultV = Obj.find("result");
  if (!ResultV)
    return makeError("server response has neither result nor error");
  return *ResultV;
}

Result<int64_t> MockIde::openProfile(std::string_view Name,
                                     std::string_view Bytes) {
  json::Object Params;
  Params.set("name", std::string(Name));
  // Binary-safe transport: always base64.
  Params.set("dataBase64", base64Encode(Bytes));
  Result<json::Value> R = call("pvp/open", std::move(Params));
  if (!R)
    return makeError(R.error());
  const json::Value *IdV = R->asObject().find("profile");
  if (!IdV || !IdV->isNumber())
    return makeError("pvp/open reply missing profile id");
  return IdV->asInt();
}

Result<bool> MockIde::clickNode(int64_t ProfileId, NodeId Node) {
  json::Object Params;
  Params.set("profile", ProfileId);
  Params.set("node", Node);
  Result<json::Value> R = call("pvp/codeLink", std::move(Params));
  if (!R)
    return makeError(R.error());
  const json::Object &Obj = R->asObject();
  bool Available = false;
  if (const json::Value *AV = Obj.find("available"))
    Available = AV->boolOr(false);
  if (!Available)
    return false;
  Navigation Nav;
  if (const json::Value *FV = Obj.find("file"))
    Nav.File = std::string(FV->stringOr(""));
  if (const json::Value *LV = Obj.find("line"))
    Nav.Line = static_cast<uint32_t>(LV->numberOr(0.0));
  Navigations.push_back(std::move(Nav));
  return true;
}

Result<std::string> MockIde::hoverNode(int64_t ProfileId, NodeId Node) {
  json::Object Params;
  Params.set("profile", ProfileId);
  Params.set("node", Node);
  Result<json::Value> R = call("pvp/hover", std::move(Params));
  if (!R)
    return makeError(R.error());
  if (const json::Value *CV = R->asObject().find("contents"))
    return std::string(CV->stringOr(""));
  return makeError("hover reply missing contents");
}

} // namespace ev
