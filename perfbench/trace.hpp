// In-memory span log for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the stack
// (set-up, prefill, the fio run, and each layer replay), kept in memory, and
// written out once at exit as Chrome trace-event JSON (loads in Perfetto or
// chrome://tracing). Nothing here is called on an untraced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;  // "setup.framework", "run.fio", "replay.crush", ...
  std::uint64_t rep = 0;  // rep index; spans of one rep share it
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void add(std::string name, std::uint64_t rep, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), rep, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete ("X") event per span, timestamps
  /// in microseconds from the log's creation. Spans of rep N sit on thread
  /// N so each rep's set-up and run nest under its "rep" span.
  void write_chrome_json(std::ostream& os, const std::string& process) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
