//===- perfbench/src/Trace.cpp ------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace perfbench;

namespace {
/// Coarse spans use the lane number after the workers' lanes.
constexpr uint64_t CoarseTag = uint64_t{Workers + 1} << 48;
constexpr uint64_t SeqMask = (uint64_t{1} << 48) - 1;
} // namespace

SpanLog::SpanLog() {
  for (Lane &L : Lanes)
    L.Spans.reserve(1024);
}

uint64_t SpanLog::open(const char *Name, uint64_t Parent) {
  Span S;
  S.Id = CoarseTag | (Coarse.size() + 1);
  S.Parent = Parent;
  S.Name = Name;
  S.StartNs = nowNs();
  Coarse.push_back(S);
  return S.Id;
}

void SpanLog::close(uint64_t Id) { Coarse[(Id & SeqMask) - 1].EndNs = nowNs(); }

void SpanLog::record(unsigned Lane, uint64_t Id, const char *Name,
                     uint64_t Parent, uint64_t StartNs, uint64_t EndNs) {
  struct Lane &L = Lanes[Lane];
  if (L.Spans.size() >= LaneCapacity) {
    ++L.Dropped;
    return;
  }
  L.Spans.push_back(Span{Id, Parent, Name, StartNs, EndNs});
}

std::vector<Span> SpanLog::all() const {
  std::vector<Span> Out(Coarse);
  for (const Lane &L : Lanes)
    Out.insert(Out.end(), L.Spans.begin(), L.Spans.end());
  return Out;
}

uint64_t SpanLog::dropped() const {
  uint64_t N = 0;
  for (const Lane &L : Lanes)
    N += L.Dropped;
  return N;
}

bool SpanLog::writeJsonLines(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : all())
    std::fprintf(F,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs));
  return std::fclose(F) == 0;
}

void ProbeTotals::merge(const ProbeTotals &Other) {
  AttemptNs.merge(Other.AttemptNs);
  CommitNs.merge(Other.CommitNs);
  GateWaitNs.merge(Other.GateWaitNs);
  OnCommitNs.merge(Other.OnCommitNs);
  Attempts += Other.Attempts;
  Loads += Other.Loads;
  Stores += Other.Stores;
  CommittedNs += Other.CommittedNs;
  AbortedNs += Other.AbortedNs;
  GateNs += Other.GateNs;
  OnCommitTotalNs += Other.OnCommitTotalNs;
}

LayerProbe::LayerProbe(gstm::StartGate *InnerGate,
                       gstm::TxEventObserver *InnerObserver, SpanLog *Log)
    : InnerGate(InnerGate), InnerObserver(InnerObserver), Log(Log),
      Slots(Workers) {}

void LayerProbe::onTxStart(gstm::ThreadId Thread, gstm::TxId Tx) {
  if (!InnerGate)
    return;
  uint64_t Start = nowNs();
  InnerGate->onTxStart(Thread, Tx);
  uint64_t End = nowNs();
  ProbeTotals &T = Slots[Thread].T;
  T.GateWaitNs.record(End - Start);
  T.GateNs += End - Start;
  if (Log)
    Log->record(Thread, Log->nextId(Thread), "core.gate_wait",
                Log->laneParent(Thread), Start, End);
}

void LayerProbe::onTxBegin(gstm::ThreadId Thread, gstm::TxId, uint64_t) {
  Slot &S = Slots[Thread];
  S.AttemptStart = nowNs();
  S.FirstLock = 0;
  S.AttemptLoads = 0;
  S.AttemptStores = 0;
  S.AttemptSpan = Log ? Log->nextId(Thread) : 0;
}

void LayerProbe::onTxLoad(gstm::ThreadId Thread, const void *, uint64_t,
                          uint64_t, bool) {
  ++Slots[Thread].AttemptLoads;
}

void LayerProbe::onTxStore(gstm::ThreadId Thread, const void *, uint64_t) {
  ++Slots[Thread].AttemptStores;
}

void LayerProbe::onLockAcquire(gstm::ThreadId Thread, uint64_t) {
  Slot &S = Slots[Thread];
  if (S.FirstLock == 0)
    S.FirstLock = nowNs();
}

void LayerProbe::onCommit(const gstm::CommitEvent &E) {
  uint64_t End = nowNs();
  Slot &S = Slots[E.Thread];
  if (S.FirstLock != 0) {
    S.T.CommitNs.record(End - S.FirstLock);
    if (Log)
      Log->record(E.Thread, Log->nextId(E.Thread), "stm.commit",
                  S.AttemptSpan, S.FirstLock, End);
  }
  if (InnerObserver) {
    InnerObserver->onCommit(E);
    uint64_t Done = nowNs();
    S.T.OnCommitNs.record(Done - End);
    S.T.OnCommitTotalNs += Done - End;
    if (Log)
      Log->record(E.Thread, Log->nextId(E.Thread), "core.on_commit",
                  S.AttemptSpan, End, Done);
    End = Done;
  }
  endAttempt(S, E.Thread, End, /*Committed=*/true);
}

void LayerProbe::onAbort(const gstm::AbortEvent &E) {
  if (InnerObserver)
    InnerObserver->onAbort(E);
  endAttempt(Slots[E.Thread], E.Thread, nowNs(), /*Committed=*/false);
}

void LayerProbe::endAttempt(Slot &S, unsigned Lane, uint64_t EndNs,
                            bool Committed) {
  uint64_t Dur = EndNs - S.AttemptStart;
  S.T.AttemptNs.record(Dur);
  ++S.T.Attempts;
  S.T.Loads += S.AttemptLoads;
  S.T.Stores += S.AttemptStores;
  (Committed ? S.T.CommittedNs : S.T.AbortedNs) += Dur;
  if (Log)
    Log->record(Lane, S.AttemptSpan,
                Committed ? "stm.attempt.commit" : "stm.attempt.abort",
                Log->laneParent(Lane), S.AttemptStart, EndNs);
}

ProbeTotals LayerProbe::totals() const {
  ProbeTotals Sum;
  for (const Slot &S : Slots)
    Sum.merge(S.T);
  return Sum;
}
