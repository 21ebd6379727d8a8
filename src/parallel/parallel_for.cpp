#include "parallel/parallel_for.hpp"

#include <exception>
#include <mutex>

#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "util/timer.hpp"

namespace treecode {

WorkStats parallel_for_blocked(ThreadPool& pool, std::size_t n, std::size_t block_size,
                               const BlockedBody& body, CancellationToken* cancel,
                               const char* trace_name) {
  if (block_size == 0) block_size = 1;
  const unsigned width = pool.width();
  WorkStats stats;
  stats.work.assign(width, 0);
  stats.seconds.assign(width, 0.0);
  if (n == 0) return stats;

  // Exceptions cancel the sweep cooperatively: the throwing worker trips
  // the token, the others stop claiming blocks, and the first exception is
  // rethrown here after the region drains. Without a caller-provided token
  // a local one serves the same purpose.
  CancellationToken local_token;
  CancellationToken* token = cancel != nullptr ? cancel : &local_token;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::atomic<std::size_t> next{0};
  pool.run_on_all([&](unsigned t) {
    // The region runs detached from the caller's request: at width 1 the
    // task runs on the caller thread, and a span joining its request there
    // would draw ids that wider pools never draw, breaking the
    // thread-count-independent id stream. Callers forward registry
    // constants per the parallel_for contract; the fallback makes this the
    // one non-constant span site.
    const obs::reqtrace::ContextGuard detached{obs::reqtrace::TraceContext{}};
    const obs::reqtrace::PhaseSpan span(trace_name != nullptr ? trace_name
                                                              : obs::span::kParallelFor);
    Timer timer;
    std::uint64_t my_work = 0;
    while (!token->cancelled()) {
      const std::size_t begin = next.fetch_add(block_size, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = begin + block_size < n ? begin + block_size : n;
      try {
        my_work += body(begin, end, t);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        token->cancel();
        break;
      }
    }
    stats.work[t] = my_work;
    stats.seconds[t] = timer.seconds();
  });
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

void parallel_for(ThreadPool& pool, std::size_t n, std::size_t block_size,
                  const std::function<void(std::size_t, std::size_t, unsigned)>& body,
                  CancellationToken* cancel, const char* trace_name) {
  parallel_for_blocked(
      pool, n, block_size,
      [&body](std::size_t b, std::size_t e, unsigned t) -> std::uint64_t {
        body(b, e, t);
        return e - b;
      },
      cancel, trace_name);
}

}  // namespace treecode
