// Shared pieces of oakbench: the span log of the traced mode,
// the serving stack under test, and the per-layer stage replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_server.h"
#include "obs/metrics.h"
#include "page/site.h"
#include "wire/server.h"
#include "workload.h"

namespace oakbench {

namespace browser = oak::browser;
namespace core = oak::core;
namespace durability = oak::durability;
namespace html = oak::html;
namespace http = oak::http;
namespace obs = oak::obs;
namespace page = oak::page;
namespace util = oak::util;
namespace wire = oak::wire;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> xs, double p);

// Spans kept in memory while a traced run measures and written out when it
// ends: name, start, end, parent span and request id. One log per thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;  // index in this log, -1 for a root
    std::uint64_t request;
  };

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  // Returns the span's index (or -1 when disabled); close it with end().
  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t request) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    spans_.push_back({name, now, now, parent, request});
    return std::int64_t(spans_.size() - 1);
  }
  void end(std::int64_t index) {
    if (index >= 0) spans_[std::size_t(index)].end = Clock::now();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Writes every log as tab-separated "name start_ns end_ns parent request"
// rows, times relative to `epoch`, parents renumbered across logs.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 Clock::time_point epoch);

// One running instance of the system under test: the sharded Oak core and
// the wire front-end in front of it.
struct Serving {
  std::unique_ptr<core::ShardedOakServer> oak;
  std::unique_ptr<wire::Server> wire;
  Clock::time_point wire_epoch;  // the wire server's clock origin (≈)

  obs::MetricsSnapshot metrics() const {
    obs::MetricsSnapshot s = oak->metrics_snapshot();
    s.merge(wire->metrics_snapshot());
    return s;
  }
  double now() const { return seconds_between(wire_epoch, Clock::now()); }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Everything the stage replay needs to know about the run so far.
struct StageInputs {
  const Workload* w = nullptr;
  Serving* serving = nullptr;
  page::WebUniverse* universe = nullptr;
  std::string run_dir;
  std::vector<double> socket_page_s;    // client-observed, timed window
  std::vector<double> socket_report_s;
};

struct StageResult {
  std::vector<Metric> metrics;
  std::uint64_t checked_reports = 0;
  std::uint64_t wrong_verdicts = 0;  // check (b) failures
  std::uint64_t wrong_pages = 0;
};

// Traced mode: call each layer's public entry points from outside on the
// workload's own requests, timing each call into `log`.
StageResult run_stages(const StageInputs& in, SpanLog& log);

}  // namespace oakbench
