#include "trace.h"

#include <fstream>

namespace ldpbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::ThreadBuffer* Tracer::Buffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->thread = static_cast<int>(buffers_.size()) - 1;
  buffers_.back()->spans.reserve(1 << 12);
  return buffers_.back().get();
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(ThreadBuffer* buffer, const char* name,
                     uint64_t trace_id)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  span.trace_id = trace_id;
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(span);
  buffer_->open.push_back(index_);
  // Last, so the clock read is not charged with the bookkeeping above.
  buffer_->spans[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              child_ns[i]) *
          1e-9;
    }
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      if (name == s.name) total += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  return total;
}

trajldp::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return trajldp::Status::Internal("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "name\tstart_ns\tend_ns\tparent\ttrace_id\tthread\n";
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << s.parent << '\t' << s.trace_id << '\t' << buffer->thread << '\n';
    }
  }
  out.flush();
  return out ? trajldp::Status::Ok()
             : trajldp::Status::Internal("short write to " + path);
}

}  // namespace ldpbench
