//===- perfbench/Spans.cpp - In-memory span recorder ----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

namespace pb {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

namespace {

const Clock::time_point Epoch = Clock::now();
std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint64_t> NextRequest{1};

std::mutex RecordsMutex;
std::vector<SpanRecord> Records; // Guarded by RecordsMutex.

thread_local bool Tracing = false;
thread_local unsigned Lane = 0;
thread_local uint64_t Request = 0;
thread_local std::vector<uint64_t> Open; // Ids of this thread's open spans.

double sinceEpochUs(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - Epoch).count();
}

} // namespace

void setTracing(bool On) { Tracing = On; }
bool tracing() { return Tracing; }
void setLane(unsigned L) { Lane = L; }
void setRequest(uint64_t R) { Request = R; }
uint64_t nextRequestId() { return NextRequest.fetch_add(1); }

Span::Span(std::string SpanName, const char *Category)
    : Name(std::move(SpanName)), Cat(Category), T0(Clock::now()) {
  if (!Tracing)
    return;
  Id = NextSpanId.fetch_add(1);
  Parent = Open.empty() ? 0 : Open.back();
  Open.push_back(Id);
}

Span::~Span() {
  if (Id == 0)
    return;
  Clock::time_point T1 = Clock::now();
  Open.pop_back();
  SpanRecord R{std::move(Name), Cat,  Id, Parent, Request, Lane,
               sinceEpochUs(T0), sinceEpochUs(T1)};
  std::lock_guard<std::mutex> Lock(RecordsMutex);
  Records.push_back(std::move(R));
}

std::vector<SpanRecord> collectSpans() {
  std::lock_guard<std::mutex> Lock(RecordsMutex);
  return Records;
}

std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, size_t> Index;
  for (size_t I = 0; I < Spans.size(); ++I)
    Index.emplace(Spans[I].Id, I);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  for (const SpanRecord &S : Spans) {
    auto It = Index.find(S.Parent);
    if (It != Index.end())
      Self[It->second] -= S.EndUs - S.StartUs;
  }
  return Self;
}

std::string chromeTraceJson(const std::vector<SpanRecord> &Spans) {
  ev::json::Array Events;
  Events.reserve(Spans.size());
  for (const SpanRecord &S : Spans) {
    ev::json::Object Args;
    Args.set("span", S.Id);
    Args.set("parent", S.Parent);
    Args.set("request", S.Request);
    ev::json::Object E;
    E.set("name", S.Name);
    E.set("cat", S.Cat);
    E.set("ph", "X");
    E.set("ts", S.StartUs);
    E.set("dur", S.EndUs - S.StartUs);
    E.set("pid", 1);
    E.set("tid", S.Lane);
    E.set("args", std::move(Args));
    Events.push_back(std::move(E));
  }
  ev::json::Object Doc;
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  return ev::json::Value(std::move(Doc)).dump();
}

} // namespace pb
