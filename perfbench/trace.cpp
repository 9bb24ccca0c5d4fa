#include "trace.hpp"

#include <cstdio>

namespace perfbench {

void SpanLog::write_chrome_json(std::ostream& os,
                                const std::string& process) const {
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"" << process << "\"}}";
  char buf[96];
  for (const Span& s : spans_) {
    const auto layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", us(s.start),
                  us(s.end) - us(s.start));
    os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << layer
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rep << "," << buf
       << ",\"args\":{\"rep\":" << s.rep << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
