// Microbenchmarks of the discrete-event queue hot path: steady-state
// schedule/run churn, the schedule/cancel/run mix that Trickle timers and
// radio timeouts generate, a cancel-heavy soak that exercises heap
// compaction, and MAC-backoff churn, the near-future timer load the
// two-tier wheel+heap queue is built for. The seed queue's and the
// heap-only mode's ratios are kept in BENCH_radio.json's history rather
// than as in-binary copies.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace scoop {
namespace {

// Deterministic delay pattern (xorshift), identical across queue variants.
struct DelayGen {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  SimTime Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<SimTime>(state % 997 + 1);
  }
};

// The MAC-backoff bench keeps its BENCH_radio.json name.
using WheelEventQueue = sim::EventQueue;

// ---------------------------------------------------------------------------
// Steady-state churn: a window of pending events; each iteration runs the
// earliest and schedules a replacement. Callbacks carry a radio.cc-sized
// capture (this-pointer plus three 64-bit values), which overflows
// std::function's 16-byte inline buffer but fits SmallCallback's.
template <typename Queue>
void BM_ScheduleRunChurn(benchmark::State& state) {
  Queue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int window = static_cast<int>(state.range(0));
  for (int i = 0; i < window; ++i) {
    uint64_t a = i, b = i + 1, c = i + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b + c; });
  }
  for (auto _ : state) {
    q.RunOne();
    uint64_t a = sink, b = sink + 1, c = sink + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a ^ b ^ c; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_ScheduleRunChurn, sim::EventQueue)->Arg(1024);

// ---------------------------------------------------------------------------
// The mixed workload: a schedule/cancel/run mix. Each iteration
// schedules two events, cancels an aged one (as retransmission timeouts
// do) and replaces it, and runs one -- so the pending window stays stable
// and every iteration pays one of each hot-path operation.
template <typename Queue>
void BM_MixedScheduleCancelRun(benchmark::State& state) {
  Queue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int window = static_cast<int>(state.range(0));
  std::vector<sim::EventId> aged(static_cast<size_t>(window), sim::kInvalidEventId);
  size_t cursor = 0;
  for (int i = 0; i < window; ++i) {
    uint64_t a = i, b = i + 1, c = i + 2;
    aged[static_cast<size_t>(i)] =
        q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b + c; });
  }
  for (auto _ : state) {
    uint64_t a = sink, b = sink + 1, c = sink + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a ^ b ^ c; });
    q.Cancel(aged[cursor]);
    aged[cursor] =
        q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b - c; });
    cursor = (cursor + 1) % aged.size();
    q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_MixedScheduleCancelRun, sim::EventQueue)->Arg(256);

// ---------------------------------------------------------------------------
// Trickle soak: N timers that each cancel and reschedule every round, with
// one event run per round. Every cancel strands a heap entry until the
// queue's bulk compaction reclaims it.
template <typename Queue>
void BM_TrickleCancelReschedule(benchmark::State& state) {
  Queue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int timers = static_cast<int>(state.range(0));
  std::vector<sim::EventId> pending(static_cast<size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    pending[static_cast<size_t>(i)] =
        q.ScheduleAfter(delays.Next(), [&sink] { ++sink; });
  }
  size_t cursor = 0;
  for (auto _ : state) {
    q.Cancel(pending[cursor]);
    pending[cursor] = q.ScheduleAfter(delays.Next(), [&sink] { ++sink; });
    cursor = (cursor + 1) % pending.size();
    if (cursor == 0) q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_TrickleCancelReschedule, sim::EventQueue)->Arg(64);

// ---------------------------------------------------------------------------
// MAC-backoff churn: N contending senders, each holding one pending CSMA
// backoff timer drawn from the radio's binary-exponential distribution
// (fresh window [8, 16) ms, doubling per busy attempt, capped at 64 ms --
// radio_options.h defaults). Most timers are cancelled before they fire
// (the channel went busy again) and re-armed with the next window; one in
// eight rounds runs the due timer instead. Every delay lands inside the
// wheel's ~1 s horizon, so this is the workload the wheel exists for.
struct BackoffGen {
  uint64_t state = 0x243f6a8885a308d3ull;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  /// Uniform draw in [w/2, w) for the 1-based attempt's window.
  SimTime Draw(int attempt) {
    SimTime w = 16000 << (attempt - 1);  // us; fresh window tops at 16 ms.
    if (w > 64000) w = 64000;            // BEB cap.
    return w / 2 + static_cast<SimTime>(Next() % static_cast<uint64_t>(w / 2));
  }
};

template <typename Queue>
void BM_MacBackoffChurn(benchmark::State& state) {
  Queue q;
  BackoffGen rng;
  uint64_t sink = 0;
  const int n = static_cast<int>(state.range(0));
  std::vector<sim::EventId> timer(static_cast<size_t>(n));
  std::vector<uint8_t> attempt(static_cast<size_t>(n), 1);
  for (int i = 0; i < n; ++i) {
    timer[static_cast<size_t>(i)] = q.ScheduleAfter(rng.Draw(1), [&sink] { ++sink; });
  }
  size_t cursor = 0;
  for (auto _ : state) {
    if ((cursor & 7) == 7) {
      // The channel cleared: run the due timer; its sender re-arms fresh.
      if (q.RunOne()) q.ScheduleAfter(rng.Draw(1), [&sink] { ++sink; });
    } else {
      // Busy again: cancel the pending backoff before it fires and re-arm
      // with the doubled window -- the dominant MAC churn pattern.
      q.Cancel(timer[cursor]);
      uint8_t& a = attempt[cursor];
      a = a >= 4 ? 1 : static_cast<uint8_t>(a + 1);
      timer[cursor] = q.ScheduleAfter(rng.Draw(a), [&sink] { ++sink; });
    }
    cursor = (cursor + 1) % static_cast<size_t>(n);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_MacBackoffChurn, WheelEventQueue)->Arg(128)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
