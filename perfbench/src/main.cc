// oakbench: Oak's page and report paths, end to end over loopback sockets.
//
//   oakbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//   oakbench --self-test
//
// One process per run: it builds the workload from the seed, starts a
// ShardedOakServer behind a wire::Server, and drives it from the main
// thread with one closed-loop keep-alive connection. A visit is the user's
// page GET followed by that visit's report POST, both carrying the user's
// oak_uid cookie. Warm-up rounds bring every user to steady state (all of its
// rules active, caches filled) before the timed rounds start; the timed
// window is then a fixed number of whole rounds sized to last about
// --seconds (Workload::rounds_per_second). The last line on stdout is the
// result object; progress goes to stderr.
#include <malloc.h>
#include <sched.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/rule_parser.h"
#include "http_client.h"
#include "reference.h"

namespace oakbench {

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".bench_build";
};

double cpu_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// A "<key>: <n> kB" line of /proc/self/status, in MiB.
double status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// One timed visit: when its report POST completed (seconds from the start
// of the timed window) and the client-observed latency of each request.
struct VisitSample {
  double end_s;
  double page_s;
  double report_s;
};

// The timed window cut into consecutive windows of `size` visits (in
// completion order; the remainder joins the last window). Each metric is
// the mean of the windows' figures after dropping the highest and lowest
// tenth: a burst of interference from outside the process moves a dropped
// window, not the result, and where the host ran at two speeds within the
// run, the result moves with the share of time at each speed instead of
// jumping from one to the other as a median does. Every window (at least
// 1024 visits) holds enough requests for a p99 with ten samples beyond it.
struct Windows {
  double visits_per_s = 0.0;
  double page_p50_s = 0.0, page_p99_s = 0.0;
  double report_p50_s = 0.0, report_p99_s = 0.0;
};

double trimmed_mean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / double(xs.size() - 2 * cut);
}

Windows window_means(const std::vector<VisitSample>& sorted, std::size_t size) {
  std::vector<double> rate, page50, page99, report50, report99;
  const std::size_t n = std::max<std::size_t>(1, sorted.size() / size);
  double begin = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i * size;
    const std::size_t hi = i + 1 == n ? sorted.size() : lo + size;
    if (lo >= hi) break;
    std::vector<double> page, report;
    for (std::size_t j = lo; j < hi; ++j) {
      page.push_back(sorted[j].page_s);
      report.push_back(sorted[j].report_s);
    }
    const double end = sorted[hi - 1].end_s;
    rate.push_back(double(hi - lo) / (end - begin));
    begin = end;
    page50.push_back(percentile(page, 0.50));
    page99.push_back(percentile(page, 0.99));
    report50.push_back(percentile(report, 0.50));
    report99.push_back(percentile(report, 0.99));
  }
  return {trimmed_mean(rate), trimmed_mean(page50), trimmed_mean(page99),
          trimmed_mean(report50), trimmed_mean(report99)};
}

// Closed-loop load on the calling thread: one keep-alive connection that
// visits every user once per round, in a fixed order.
class Load {
 public:
  Load(const Workload& w, bool trace) : spans(trace), w_(w), reported_(w.users.size(), 0) {
    for (const UserInput& u : w.users) {
      const std::string cookie = std::string("Cookie: oak_uid=") + u.uid + "\r\n";
      get_.push_back(std::string("GET ") + kPagePath + " HTTP/1.1\r\nHost: " + kSiteHost +
                     "\r\n" + cookie + "\r\n");
      post_.push_back(std::string("POST ") + kReportPath + " HTTP/1.1\r\nHost: " + kSiteHost +
                      "\r\n" + cookie + "Content-Type: application/json\r\nContent-Length: " +
                      std::to_string(u.report.size()) + "\r\n\r\n" + u.report);
    }
    visits.reserve(1 << 20);
  }

  // (Re)connect; only between rounds.
  void connect(std::uint16_t port) {
    port_ = port;
    if (!conn_.connect(port)) throw std::runtime_error("cannot connect to the wire server");
  }

  // One visit per user. Timed rounds record their visits and this
  // thread's CPU.
  void round(bool record, Clock::time_point epoch = {}) {
    const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t u = 0; u < w_.users.size(); ++u) visit(u, record, epoch);
    if (record) cpu_s += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    ++round_no_;
  }

  std::vector<VisitSample> visits;  // timed window only
  std::uint64_t attempted = 0, failed = 0, pages_200 = 0, reports_204 = 0;
  std::uint64_t wrong_pages = 0, set_cookies = 0;
  double cpu_s = 0.0;  // the generator's CPU in the timed window
  SpanLog spans;

 private:
  void note_failure(const char* what, bool answered, int status) {
    if (++failed <= 5) {
      std::fprintf(stderr, "%s failed: %s %d\n", what, answered ? "status" : "no reply",
                   answered ? status : 0);
    }
  }

  bool exchange(const std::string& request, HttpReply& reply) {
    if (!conn_.connected() && !conn_.connect(port_)) return false;
    return conn_.exchange(request, reply);
  }

  void visit(std::size_t u, bool record, Clock::time_point epoch) {
    const std::uint64_t id = round_no_ * w_.users.size() + u;
    const std::int64_t root = spans.begin("client.visit", -1, id);
    HttpReply reply;

    std::int64_t span = spans.begin("client.page_get", root, id);
    Clock::time_point t0 = Clock::now();
    bool ok = exchange(get_[u], reply);
    Clock::time_point t1 = Clock::now();
    spans.end(span);
    ++attempted;
    const double page_s = seconds_between(t0, t1);
    bool timed = record;
    if (ok && reply.status == 200) {
      ++pages_200;
      if (reply.set_cookie) ++set_cookies;
      // Check (a): before the user's first report Oak has nothing to act
      // on and must serve the original bytes; afterwards the reference
      // rewrite for the user's predicted rule set (the original bytes
      // again when the user has no violator).
      const std::string& want = w_.pages[reported_[u] ? w_.users[u].page : 0];
      if (reply.body != want) ++wrong_pages;
    } else {
      timed = false;
      note_failure("page GET", ok, reply.status);
    }

    span = spans.begin("client.report_post", root, id);
    t0 = Clock::now();
    ok = exchange(post_[u], reply);
    t1 = Clock::now();
    spans.end(span);
    ++attempted;
    if (ok && reply.status == 204) {
      ++reports_204;
      reported_[u] = 1;
      if (timed) visits.push_back({seconds_between(epoch, t1), page_s, seconds_between(t0, t1)});
    } else {
      note_failure("report POST", ok, reply.status);
    }
    spans.end(root);
  }

  const Workload& w_;
  std::vector<std::string> get_, post_;
  std::vector<char> reported_;
  HttpConnection conn_;
  std::uint16_t port_ = 0;
  std::uint64_t round_no_ = 0;
};

constexpr double kDeadlineS = 3600.0;

core::OakConfig make_config(const Workload& w, const std::string& run_dir) {
  core::OakConfig cfg;
  cfg.report_path = kReportPath;
  cfg.user_store.hot_capacity = w.hot_capacity;
  if (w.hot_capacity > 0) cfg.user_store.spill_dir = run_dir + "/spill";
  if (w.durability) {
    cfg.durability.enabled = true;
    cfg.durability.dir = run_dir + "/journal";
    cfg.durability.compact_threshold_bytes = w.compact_threshold_bytes;
  }
  return cfg;
}

void start_wire(Serving& s) {
  wire::WireConfig wc;
  wc.loops = kWireLoops;
  wc.worker_threads = kWireWorkers;
  // Every deadline is armed as in a deployment, but lies beyond any run:
  // TimerWheel::cancel() forgets an id's generation, so a re-armed
  // deadline can match a stale wheel entry and close a busy keep-alive
  // connection once that entry comes due. With the default 5 s header
  // deadline, requests failed on some runs and not others.
  wc.header_deadline_s = kDeadlineS;
  wc.idle_deadline_s = kDeadlineS;
  wc.write_deadline_s = kDeadlineS;
  s.wire_epoch = Clock::now();
  s.wire = std::make_unique<wire::Server>(*s.oak, wc);
  s.wire->start();
}

// Check (c) for one serving instance: what the clients saw accepted since
// the instance began equals what the program counted.
struct CountBase {
  std::uint64_t oak_reports = 0, oak_pages = 0, client_204 = 0, client_200 = 0;
};

CountBase count_base(const Serving& s, const Load& load) {
  return {s.oak->reports_processed(),
          s.oak->metrics_snapshot().counter("oak_pages_served_total"),
          load.reports_204, load.pages_200};
}

bool counts_match(const Serving& s, const Load& load, const CountBase& base) {
  const CountBase now = count_base(s, load);
  const bool ok = now.oak_reports - base.oak_reports == now.client_204 - base.client_204 &&
                  now.oak_pages - base.oak_pages == now.client_200 - base.client_200;
  if (!ok) {
    std::fprintf(stderr, "count mismatch: oak reports %llu vs 204s %llu; oak pages %llu vs 200s %llu\n",
                 (unsigned long long)(now.oak_reports - base.oak_reports),
                 (unsigned long long)(now.client_204 - base.client_204),
                 (unsigned long long)(now.oak_pages - base.oak_pages),
                 (unsigned long long)(now.client_200 - base.client_200));
  }
  return ok;
}

double hist_sum(const obs::MetricsSnapshot& m, const char* name) {
  const obs::HistogramSnapshot* h = m.histogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

double hist_count(const obs::MetricsSnapshot& m, const char* name) {
  const obs::HistogramSnapshot* h = m.histogram(name);
  return h == nullptr ? 0.0 : double(h->count());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Keeps every thread of the process, the ones started later included, on
// the highest-numbered CPU the process may use. A visit is a strict chain
// of hand-offs (client, loop, page worker, loop, client), so one CPU runs
// it without queueing; spread over several CPUs, each hand-off waited for
// an idle virtual CPU to be woken, and on the reference VM that wait made
// throughput differ by 2x between runs.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity failed");
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_setaffinity failed");
}

int run(const Options& o) {
  pin_to_one_cpu();
  const Workload w = make_workload(o.workload, o.seed);
  const std::string run_dir = o.work_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir + "/spill");
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_run_dir{run_dir};

  Load load(w, o.trace);
  // The inputs are built. Free what building them left in the heap, and
  // take the memory now resident as the baseline of peak_rss_mb; set-up
  // time starts with the first call into the program.
  ::malloc_trim(0);
  const double rss_base = status_mib("VmRSS");
  const double hwm_base = status_mib("VmHWM");
  const Clock::time_point setup_start = Clock::now();

  page::WebUniverse universe;
  {
    page::WebObject index;
    index.url = std::string("http://") + kSiteHost + kPagePath;
    index.body = w.page_html;
    index.size = index.body.size();
    universe.store().put(std::move(index));
    for (const auto& [url, body] : w.scripts) {
      page::WebObject script;
      script.url = url;
      script.kind = html::RefKind::kScript;
      script.body = body;
      script.size = body.size();
      universe.store().put(std::move(script));
    }
  }
  const core::OakConfig cfg = make_config(w, run_dir);
  bool correct = true;

  Serving s;
  s.oak = std::make_unique<core::ShardedOakServer>(universe, kSiteHost, cfg, kShards);
  s.oak->add_rules(core::parse_rules(w.rule_file));
  start_wire(s);
  load.connect(s.wire->port());
  CountBase base = count_base(s, load);
  const double construct_s = seconds_between(setup_start, Clock::now());

  load.round(false);
  const double decisions_per_1k =
      1000.0 * ratio(double(s.oak->metrics_snapshot().counter("oak_policy_decisions_total")),
                     double(s.oak->reports_processed()));
  for (std::size_t r = 1; r < w.warmup_rounds; ++r) load.round(false);

  double recovery_s = 0.0, replayed_per_s = 0.0;
  if (w.durability) {
    // Rebuild from the journal: recovery falls inside setup_s.
    correct = counts_match(s, load, base) && correct;
    s.wire->stop();
    s.wire.reset();
    const std::string before = s.oak->export_state().dump();
    s.oak.reset();
    const Clock::time_point r0 = Clock::now();
    s.oak = std::make_unique<core::ShardedOakServer>(universe, kSiteHost, cfg, kShards);
    recovery_s = seconds_between(r0, Clock::now());
    const durability::RecoveryReport rep = s.oak->recovery_report();
    replayed_per_s = ratio(double(rep.records_replayed), rep.replay_seconds);
    // Check (d): recovery reproduces the state the first process held.
    if (s.oak->export_state().dump() != before) {
      std::fprintf(stderr, "export_state after recovery differs from before the restart\n");
      correct = false;
    }
    start_wire(s);
    load.connect(s.wire->port());
    base = count_base(s, load);
    for (std::size_t r = 0; r < w.warmup_rounds; ++r) load.round(false);
  }

  const obs::MetricsSnapshot m0 = s.metrics();
  const Clock::time_point t_start = Clock::now();
  const double setup_s = seconds_between(setup_start, t_start);
  std::fprintf(stderr, "setup %.3f s: construction and rules %.3f s, recovery %.3f s, warm-up %.3f s\n",
               setup_s, construct_s, recovery_s, setup_s - construct_s - recovery_s);
  const double pcpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, std::uint64_t(std::llround(o.seconds * w.rounds_per_second)));
  for (std::uint64_t r = 0; r < rounds; ++r) load.round(true, t_start);
  const double window_s = seconds_between(t_start, Clock::now());
  const double pcpu1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const obs::MetricsSnapshot m1 = s.metrics();
  correct = counts_match(s, load, base) && correct;

  const std::vector<VisitSample>& samples = load.visits;  // in completion order
  const double client_cpu_s = load.cpu_s;
  std::vector<double> page_s, report_s;
  for (const VisitSample& v : samples) {
    page_s.push_back(v.page_s);
    report_s.push_back(v.report_s);
  }
  const double visits = double(rounds * w.users.size());
  if (load.wrong_pages != 0 || load.set_cookies != 0) {
    std::fprintf(stderr, "%llu page(s) differ from the reference rewrite; %llu set a cookie\n",
                 (unsigned long long)load.wrong_pages, (unsigned long long)load.set_cookies);
    correct = false;
  }

  std::vector<Metric> metrics;
  const Windows win = window_means(samples, w.window_visits);
  if (!o.trace) {
    metrics.push_back({"visits_per_s", win.visits_per_s, "visits/s"});
    metrics.push_back({"page_p50_ms", win.page_p50_s * 1e3, "ms"});
    metrics.push_back({"report_p50_ms", win.report_p50_s * 1e3, "ms"});
    metrics.push_back({"server_cpu_us_per_visit", (pcpu1 - pcpu0 - client_cpu_s) / visits * 1e6, "us"});
  } else {
    auto delta = [&](const char* name) { return double(m1.counter(name) - m0.counter(name)); };
    std::vector<double> shard_load(kShards, 0.0);
    for (const UserInput& u : w.users) shard_load[s.oak->shard_for(u.uid)] += 1.0;
    const double max_load = *std::max_element(shard_load.begin(), shard_load.end());

    StageInputs in{&w, &s, &universe, run_dir, page_s, report_s};
    SpanLog replay_log(true);
    const StageResult stages = run_stages(in, replay_log);
    if (stages.wrong_verdicts != 0 || stages.wrong_pages != 0) {
      std::fprintf(stderr, "stage replay: %llu of %llu verdicts and %llu page(s) disagree with the reference\n",
                   (unsigned long long)stages.wrong_verdicts,
                   (unsigned long long)stages.checked_reports,
                   (unsigned long long)stages.wrong_pages);
      correct = false;
    }
    metrics = stages.metrics;
    auto add = [&](const char* name, double value, const char* unit) {
      metrics.push_back({name, value, unit});
    };
    add("wire.writev_buffers_per_call",
        ratio(delta("oak_wire_writev_buffers_total"), delta("oak_wire_writev_calls_total")), "count");
    add("wire.bytes_out_per_visit", delta("oak_wire_bytes_out_total") / visits, "bytes");
    add("sharded_server.contentions_per_1k",
        1000.0 * ratio(delta("oak_shard_contentions_total"), delta("oak_requests_total")), "count");
    add("sharded_server.batch_size_mean",
        ratio(hist_sum(m1, "oak_ingest_batch_size") - hist_sum(m0, "oak_ingest_batch_size"),
              hist_count(m1, "oak_ingest_batch_size") - hist_count(m0, "oak_ingest_batch_size")),
        "count");
    add("sharded_server.shard_load_max_over_mean", max_load / (double(w.users.size()) / kShards),
        "ratio");
    const double memo_hits = delta("oak_match_memo_hits_total");
    add("matcher.memo_hit_ratio", ratio(memo_hits, memo_hits + delta("oak_match_memo_misses_total")),
        "ratio");
    add("matcher.script_fetches", double(m1.counter("oak_match_script_fetches_total")), "count");
    add("policy.decisions_per_1k_reports", decisions_per_1k, "count");
    add("durability.bytes_per_report",
        (hist_sum(m1, "oak_journal_append_bytes") - hist_sum(m0, "oak_journal_append_bytes")) / visits,
        "bytes");
    add("durability.compactions", delta("oak_journal_compactions_total"), "count");
    add("durability.recovery_s", recovery_s, "s");
    add("durability.replayed_records_per_s", replayed_per_s, "records/s");
    add("user_store.faultins_per_1k", 1000.0 * delta("oak_user_faultins_total") / visits, "count");
    add("user_store.demotions_per_1k", 1000.0 * delta("oak_user_demotions_total") / visits, "count");
    add("user_store.cold_file_mb", m1.gauge("oak_users_cold_file_bytes") / double(1 << 20), "MiB");
    add("client.cpu_us_per_visit", client_cpu_s / visits * 1e6, "us");
    // Tail latency has no bound: across sets of ten runs on the reference
    // host its spread ranged from 0.05 to 0.41 (README.md).
    add("client.page_p99_ms", win.page_p99_s * 1e3, "ms");
    add("client.report_p99_ms", win.report_p99_s * 1e3, "ms");

    const std::vector<const SpanLog*> logs = {&load.spans, &replay_log};
    const std::string dir = o.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + w.name + "-seed" + std::to_string(o.seed) + ".tsv";
    if (!write_spans(path, logs, t_start)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "spans: %s\n", path.c_str());
    }
  }

  s.wire->stop();
  // The program's own peak: the process's high-water mark above the
  // memory the inputs and the client held before the first call into it.
  const double hwm = status_mib("VmHWM");
  const double rss = hwm - rss_base;
  if (hwm_base >= hwm) {
    std::fprintf(stderr, "the inputs' high-water mark %.1f MiB hides the program's peak\n",
                 hwm_base);
    correct = false;
  }
  if (!o.trace) {
    metrics.push_back({"peak_rss_mb", rss, "MiB"});
    metrics.push_back({"setup_s", setup_s, "s"});
  }
  std::fprintf(stderr,
               "%s seed %llu: %llu rounds, %.0f visits in %.2f s (%.1f visits/s), setup %.2f s, "
               "recovery %.3f s, peak %.1f MiB over %.1f MiB of inputs\n",
               w.name.c_str(), (unsigned long long)o.seed, (unsigned long long)rounds, visits,
               window_s, visits / window_s, setup_s, recovery_s, rss, rss_base);

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(load.attempted) +
                     ", \"failed\": " + std::to_string(load.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int self_test() {
  int failures = ref::self_test();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 1);
    std::size_t outage = 0, active = 0, violators = 0;
    for (const UserInput& u : w.users) {
      outage += !u.outage.empty();
      active += u.active.size();
      violators += u.violators.size();
    }
    std::fprintf(stderr,
                 "%s: %zu users (%zu with an outage), %zu servers, %zu report entries, %zu rules, "
                 "page %zu B, %.2f violators and %.2f active rules per user, %zu page variants\n",
                 name.c_str(), w.users.size(), outage, w.servers.size(), w.objects.size(),
                 w.rules.size(), w.page_html.size(), double(violators) / double(w.users.size()),
                 double(active) / double(w.users.size()), w.pages.size());
  }
  std::fprintf(stderr, "%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return o.self_test || !o.workload.empty();
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * double(xs.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
  std::int64_t offset = 0;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      auto ns = [&](Clock::time_point t) {
        return (long long)std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
      };
      std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%llu\n", s.name, ns(s.start), ns(s.end),
                   (long long)(s.parent < 0 ? -1 : s.parent + offset),
                   (unsigned long long)s.request);
    }
    offset += std::int64_t(log->spans().size());
  }
  return std::fclose(f) == 0;
}

}  // namespace oakbench

int main(int argc, char** argv) {
  // One malloc arena for the whole process. With glibc's per-thread arenas
  // the peak on cold_restart fell into two modes, 79 and 86 MiB, by which
  // thread happened to allocate a snapshot; with one arena it repeats
  // within 1% at 66-67 MiB. Throughput and CPU per visit did not change
  // measurably (README.md).
  mallopt(M_ARENA_MAX, 1);
  oakbench::Options o;
  try {
    if (!oakbench::parse_args(argc, argv, o)) {
      std::fprintf(stderr, "usage: oakbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                           "       oakbench --self-test\n");
      return 2;
    }
    return o.self_test ? oakbench::self_test() : oakbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oakbench: %s\n", e.what());
    return 1;
  }
}
