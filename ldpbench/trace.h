#ifndef LDPBENCH_TRACE_H_
#define LDPBENCH_TRACE_H_

// In-memory span recording for the traced run. Spans are taken in the
// benchmark's own code, around its calls into each layer's public
// functions; the program itself carries no tracing. A span's layer is its
// name up to the first '.', e.g. "core.poi" belongs to "core".

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ldpbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same thread's buffer, -1 at a root.
  int32_t parent = -1;
  /// Shared by every span of one user (the user id), 0 when none applies.
  uint64_t trace_id = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and every Scope is a no-op.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// One thread's spans. Obtain with Buffer(); use from that thread only.
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of indices of unfinished spans
    int thread = 0;
  };
  /// A new buffer owned by the tracer (null when disabled).
  ThreadBuffer* Buffer();

  /// Records one span from construction to destruction, nested under the
  /// innermost open span of the same buffer.
  class Scope {
   public:
    Scope(ThreadBuffer* buffer, const char* name, uint64_t trace_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_;
    int32_t index_ = -1;
  };

  static int64_t NowNs();

  /// Per layer: Σ over its spans of duration minus the time their direct
  /// children cover.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Σ of the durations of every span named `name`.
  double TotalSeconds(const std::string& name) const;
  size_t num_spans() const;

  /// Writes every span as TSV: name, start_ns, end_ns, parent, trace_id,
  /// thread.
  trajldp::Status Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace ldpbench

#endif  // LDPBENCH_TRACE_H_
