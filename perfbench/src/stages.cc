// Traced mode's stage replay: the workload's own visits, fed to each
// layer's public entry point from outside, one timed call per layer.
//
// Two passes over the same sample: the first brings the replay's own
// matcher memo and script cache to the state the server's are in after the
// warm-up, the second is measured. Stages follow the program's chain: a
// report is decode → group → detect → match inside
// ShardedOakServer::handle_for_user, and a page is apply_rules inside the
// same call. oak_server.untimed_* is the median whole call minus the
// medians of its outside stages: the locks, the user-store lookup or
// fault-in, policy, journal append and response building.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "browser/report_decoder.h"
#include "core/durability.h"
#include "core/grouping.h"
#include "core/matcher.h"
#include "core/modifier.h"
#include "core/rule_parser.h"
#include "core/violator.h"
#include "util/arena.h"

namespace oakbench {

namespace {

http::Request make_request(bool post, const UserInput& user) {
  http::Request r;
  r.method = post ? http::Method::kPost : http::Method::kGet;
  r.url.scheme = "http";
  r.url.host = kSiteHost;
  r.url.path = post ? kReportPath : kPagePath;
  r.headers.set("Host", kSiteHost);
  r.headers.set("Cookie", std::string(http::kOakUserCookie) + "=" + user.uid);
  if (post) {
    r.headers.set("Content-Type", "application/json");
    r.body = user.report;
  }
  r.client_ip = "127.0.0.1";
  return r;
}

// One stage's call times (seconds) in the measured pass. Stages report
// medians: a compaction or a scheduler hiccup inside one call would
// otherwise dominate a mean over a few hundred calls.
struct Stage {
  std::vector<double> times;
  double median_us() const { return percentile(times, 0.5) * 1e6; }
};

}  // namespace

StageResult run_stages(const StageInputs& in, SpanLog& log) {
  const Workload& w = *in.w;
  core::ShardedOakServer& oak = *in.serving->oak;
  StageResult out;

  std::vector<core::Rule> rules = core::parse_rules(w.rule_file);
  for (std::size_t i = 0; i < rules.size(); ++i) rules[i].id = int(i + 1);
  const page::ObjectStore& store = in.universe->store();
  core::Matcher matcher(
      [&store](const std::string& url) -> std::optional<std::string> {
        const page::WebObject* o = store.find(url);
        if (o == nullptr || o->body.empty()) return std::nullopt;
        return o->body;
      },
      oak.config().matcher);
  const core::DetectorConfig& detector = oak.config().detector;

  // Journal appends are timed on a journal of the benchmark's own, in the
  // run directory, so the server's journal and compaction cadence are left
  // untouched.
  std::unique_ptr<durability::Manager> journal;
  if (w.durability) {
    durability::Options opts;
    opts.enabled = true;
    opts.dir = in.run_dir + "/append-probe";
    opts.compact_threshold_bytes = 1ull << 40;
    journal = std::make_unique<durability::Manager>(opts, 1, false);
    journal->startup();
    journal->start_recording();
  }

  Stage faultin, page, modify, report, decode, group, detect, match, append;
  std::vector<double> decode_rate;  // bytes per second, per report
  double violators = 0.0, rules_applied = 0.0, replacements = 0.0;
  util::StringArena arena;
  browser::ReportView view;
  std::vector<std::string_view> urls;
  std::vector<std::string> scripts;
  std::vector<std::uint64_t> domain_hashes;

  const std::size_t sample = std::min<std::size_t>(w.users.size(), 512);
  for (int pass = 0; pass < 2; ++pass) {
    const bool measure = pass == 1;
    for (std::size_t u = 0; u < sample; ++u) {
      const UserInput& user = w.users[u];
      const std::int64_t root = measure ? log.begin("replay.visit", -1, u) : -1;
      Clock::time_point t0, t1;
      auto timed = [&](Stage& st, const char* name, auto&& fn) {
        const std::int64_t span = measure ? log.begin(name, root, u) : -1;
        t0 = Clock::now();
        fn();
        t1 = Clock::now();
        log.end(span);
        if (measure) st.times.push_back(seconds_between(t0, t1));
      };

      const http::Request get = make_request(false, user);
      http::Response resp;
      timed(page, "sharded_server.page", [&] {
        resp = oak.handle_for_user(get, in.serving->now(), user.uid);
      });
      if (resp.status != 200 || resp.body != w.pages[user.page]) ++out.wrong_pages;

      std::vector<core::AppliedRule> applied;
      for (int id : user.active) applied.push_back({&rules[std::size_t(id - 1)], 0});
      core::ModifiedPage modified;
      timed(modify, "modifier.apply_rules",
            [&] { modified = core::apply_rules(w.page_html, kPagePath, applied); });
      if (modified.html != w.pages[user.page]) ++out.wrong_pages;
      if (measure) {
        rules_applied += double(applied.size());
        replacements += double(modified.total_replacements());
      }

      const http::Request post = make_request(true, user);
      timed(report, "sharded_server.report", [&] {
        resp = oak.handle_for_user(post, in.serving->now(), user.uid);
      });
      if (resp.status != 204) ++out.wrong_verdicts;

      arena.clear();
      timed(decode, "report_decoder.decode_report_view",
            [&] { browser::decode_report_view(user.report, arena, view); });
      std::vector<core::ServerObservation> observations;
      timed(group, "grouping.group_by_server", [&] {
        observations = core::group_by_server(view, detector.small_threshold_bytes);
      });
      core::DetectionResult detection;
      timed(detect, "violator.detect_violators", [&] {
        detection = core::detect_violators(std::move(observations), detector);
      });
      if (measure) {
        decode_rate.push_back(double(user.report.size()) / decode.times.back());
        violators += double(detection.violators.size());
        // Check (b): Oak's violators are exactly the servers beyond the
        // reference median ± 2·MAD limit.
        std::vector<std::string> got, want;
        for (const core::Violation& v : detection.violators) got.push_back(v.ip);
        for (std::size_t s : user.violators) want.push_back(w.servers[s].ip);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ++out.checked_reports;
        if (got != want) ++out.wrong_verdicts;
      }

      // The probes OakServer makes per report: the history review of each
      // active rule's alternative, then activation matching of every other
      // rule, first matching violator wins.
      timed(match, "matcher.match", [&] {
        urls.clear();
        for (const auto& e : view.entries) urls.push_back(e.url);
        core::report_script_urls(urls, scripts);
        const std::uint64_t scripts_hash = core::fnv1a(scripts);
        if (detection.violators.empty()) return;
        domain_hashes.clear();
        for (const auto& v : detection.violators) domain_hashes.push_back(core::fnv1a(v.domains));
        for (const core::Rule& r : rules) {
          const bool active = std::binary_search(user.active.begin(), user.active.end(), r.id);
          if (active && r.alternatives.empty()) continue;
          for (std::size_t vi = 0; vi < detection.violators.size(); ++vi) {
            const auto& d = detection.violators[vi].domains;
            const core::MatchTier tier =
                active ? matcher.match_text(r.alternatives[0], d, domain_hashes[vi], scripts,
                                            scripts_hash, 0.0)
                       : matcher.match_rule(r, d, domain_hashes[vi], scripts, scripts_hash, 0.0);
            if (tier != core::MatchTier::kNone) break;
          }
        }
      });

      if (journal) {
        for (const http::Request* req : {&get, &post}) {
          const std::string path = req->url.to_string();
          durability::RequestRecordView rec;
          rec.now = in.serving->now();
          rec.post = req->method == http::Method::kPost;
          rec.uid = user.uid;
          rec.client_ip = req->client_ip;
          rec.path = path;
          rec.body = req->body;
          timed(append, "durability.append_request", [&] {
            rec.seq = journal->next_seq();
            journal->append_request(0, rec);
          });
        }
      }
      log.end(root);
    }
  }
  journal.reset();

  // Fault-in cost on its own: users past the sample were cycled out of the
  // hot tier by the timed rounds, so each lookup decodes a cold record (and
  // demotes a resident profile to make room).
  if (w.hot_capacity > 0) {
    for (std::size_t u = sample; u < std::min(w.users.size(), sample + 256); ++u) {
      const std::int64_t span = log.begin("user_store.fault_in", -1, u);
      const Clock::time_point t0 = Clock::now();
      (void)oak.profile(w.users[u].uid);
      faultin.times.push_back(seconds_between(t0, Clock::now()));
      log.end(span);
    }
  }

  const double visits = double(page.times.size());
  const double page_us = page.median_us();
  const double report_us = report.median_us();
  auto add = [&](const char* name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  add("wire.page_overhead_us", percentile(in.socket_page_s, 0.5) * 1e6 - page_us, "us");
  add("wire.report_overhead_us", percentile(in.socket_report_s, 0.5) * 1e6 - report_us, "us");
  add("sharded_server.page_us", page_us, "us");
  add("sharded_server.report_us", report_us, "us");
  add("report_decoder.us_per_report", decode.median_us(), "us");
  add("report_decoder.mb_per_s", percentile(decode_rate, 0.5) / 1e6, "MB/s");
  add("grouping.us_per_report", group.median_us(), "us");
  add("violator.us_per_report", detect.median_us(), "us");
  add("violator.violators_per_report", visits > 0 ? violators / visits : 0.0, "count");
  add("matcher.us_per_report", match.median_us(), "us");
  add("oak_server.untimed_report_us",
      report_us - decode.median_us() - group.median_us() - detect.median_us() - match.median_us(), "us");
  add("oak_server.untimed_page_us", page_us - modify.median_us(), "us");
  add("modifier.us_per_page", modify.median_us(), "us");
  add("modifier.rules_per_page", visits > 0 ? rules_applied / visits : 0.0, "count");
  add("modifier.replacements_per_page", visits > 0 ? replacements / visits : 0.0, "count");
  add("durability.append_us", append.median_us(), "us");
  add("user_store.faultin_us", faultin.median_us(), "us");
  std::error_code ec;
  std::filesystem::remove_all(in.run_dir + "/append-probe", ec);
  return out;
}

}  // namespace oakbench
