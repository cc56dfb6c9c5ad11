// Stress tests for the sharded serving plane: many client threads hammering
// one site with interleaved page serves and report POSTs, checked against a
// single-threaded replay of the identical request streams. Per-user state is
// independent by design (§4.3), so the sharded outcome must be byte-equal to
// the sequential one, regardless of interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/sharded_server.h"
#include "http/cookies.h"

namespace oak::core {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 40;

class ShardedFixture : public ::testing::Test {
 protected:
  ShardedFixture()
      : universe_(net::NetworkConfig{.seed = 17, .horizon_s = 0}) {
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    for (const char* host : {"x0.net", "x1.net", "x2.net", "x3.net",
                             "agg.net", "hidden.cdn.net", "alt.net",
                             "alt2.net"}) {
      net::ServerId sid = net.add_server(net::ServerConfig{});
      universe_.dns().bind(host, net.server(sid).addr());
      ips_[host] = net.server(sid).addr().to_string();
    }

    page::SiteBuilder b(universe_, "busy.com", origin_);
    for (int i = 0; i < 4; ++i) {
      b.add_direct("x" + std::to_string(i) + ".net", "/o.js",
                   html::RefKind::kScript, 9000, page::Category::kCdn);
    }
    // Tier-3 material: the aggregator script induces the hidden CDN object.
    b.add_script_with_induced(
        "agg.net", "/loader.js", 4000, page::Category::kAds,
        {{"hidden.cdn.net", "/pix.png", html::RefKind::kImage, 7000,
          page::Category::kAds}});
    site_ = b.finish();
    universe_.store().replicate("http://x0.net/o.js", "http://alt.net/o.js");

    cfg_.detector.min_population = 4;
    // Contexts ride the merged log too (policy replay over a sharded
    // deployment) — recording them must not perturb decisions.
    cfg_.policy.record_context = true;
  }

  std::vector<Rule> rules() const {
    return {make_domain_rule("direct", "x0.net", {"alt.net"}),
            // Activates only through the loader.js body (tier 3).
            make_domain_rule("via-script", "agg.net", {"alt2.net"})};
  }

  // One synthetic report: x0.net and hidden.cdn.net are violators; the
  // aggregator script rides along as the tier-3 candidate.
  std::string report_wire() {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    for (int i = 0; i < 4; ++i) {
      const std::string host = "x" + std::to_string(i) + ".net";
      r.entries.push_back({"http://" + host + "/o.js", host, ips_[host], 9000,
                           0.1, i == 0 ? 4.0 : 0.10 + 0.01 * i});
    }
    r.entries.push_back({"http://agg.net/loader.js", "agg.net",
                         ips_["agg.net"], 4000, 0.1, 0.12});
    r.entries.push_back({"http://hidden.cdn.net/pix.png", "hidden.cdn.net",
                         ips_["hidden.cdn.net"], 7000, 0.1, 3.5});
    return r.serialize();
  }

  static std::string uid_for(int thread, int user) {
    return "w" + std::to_string(thread) + "u" + std::to_string(user);
  }

  // The request stream one user issues: page serve then report, per tick.
  template <typename ServerT>
  void drive_user(ServerT& server, const std::string& uid,
                  const std::string& wire) {
    const std::string cookie = std::string(http::kOakUserCookie) + "=" + uid;
    for (int i = 0; i < kIterations; ++i) {
      http::Request get = http::Request::get(site_.index_url());
      get.headers.set("Cookie", cookie);
      ASSERT_TRUE(server.handle(get, double(i)).ok());
      http::Request post =
          http::Request::post("http://busy.com/oak/report", wire);
      post.headers.set("Cookie", cookie);
      ASSERT_LT(server.handle(post, double(i) + 0.5).status, 400);
    }
  }

  // Hammer the sharded server from kThreads threads (2 users per thread).
  void run_concurrent(ShardedOakServer& server) {
    const std::string wire = report_wire();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int u = 0; u < 2; ++u) {
          drive_user(server, uid_for(t, u), wire);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  // The same requests, sequentially, against the single-threaded core.
  void run_replay(OakServer& server) {
    const std::string wire = report_wire();
    for (int t = 0; t < kThreads; ++t) {
      for (int u = 0; u < 2; ++u) drive_user(server, uid_for(t, u), wire);
    }
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::map<std::string, std::string> ips_;
  page::Site site_;
  OakConfig cfg_;
};

// Eight shards spread the users; one shard makes all eight threads contend
// for a single lock on every request.
TEST_F(ShardedFixture, StressMatchesSingleThreadedReplay) {
  OakServer replay(universe_, "busy.com", cfg_);
  replay.add_rules(rules());
  run_replay(replay);

  constexpr std::size_t kUsers = std::size_t(kThreads) * 2;
  constexpr std::size_t kReports = kUsers * kIterations;
  EXPECT_EQ(replay.reports_processed(), kReports);
  const util::Json replay_snap = replay.export_state();

  for (std::size_t shards : {std::size_t{8}, std::size_t{1}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedOakServer sharded(universe_, "busy.com", cfg_, shards);
    sharded.add_rules(rules());
    run_concurrent(sharded);

    EXPECT_EQ(sharded.user_count(), kUsers);
    EXPECT_EQ(sharded.reports_processed(), kReports);
    // One page serve and one report per iteration, each handled once.
    EXPECT_EQ(sharded.metrics_snapshot().counter("oak_requests_total"),
              kReports * 2);

    // Profiles must be byte-identical to the sequential outcome: per-user
    // state never crosses users, so interleaving cannot change it.
    util::Json sharded_snap = sharded.export_state();
    EXPECT_TRUE(sharded_snap.at("users") == replay_snap.at("users"));

    // Both rules end active for every user (tier 2 and tier 3 paths).
    for (int t = 0; t < kThreads; ++t) {
      for (int u = 0; u < 2; ++u) {
        auto p = sharded.profile(uid_for(t, u));
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->active.size(), 2u);
        EXPECT_EQ(p->reports_received, std::size_t(kIterations));
        EXPECT_EQ(p->pages_served, std::size_t(kIterations));
      }
    }

    // Decision totals match the replay type-for-type, and the replay
    // contexts merge alongside them in one global time order.
    const DecisionLog merged = sharded.merged_decision_log();
    EXPECT_EQ(merged.size(), replay.decision_log().size());
    EXPECT_EQ(merged.contexts().size(),
              replay.decision_log().contexts().size());
    EXPECT_FALSE(merged.contexts().empty());
    for (std::size_t i = 1; i < merged.contexts().size(); ++i) {
      EXPECT_LE(merged.contexts()[i - 1].time, merged.contexts()[i].time);
    }
    for (DecisionType type :
         {DecisionType::kActivate, DecisionType::kDeactivate,
          DecisionType::kAdvanceAlternative, DecisionType::kKeepAlternative,
          DecisionType::kExpire, DecisionType::kServeModified}) {
      EXPECT_EQ(merged.count(type), replay.decision_log().count(type))
          << to_string(type);
    }
  }
}

TEST_F(ShardedFixture, ExportImportRoundTripsAcrossShardCounts) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);
  // Through the wire format, as a real restart would go. (dump() rounds
  // doubles to 12 significant digits, so the parsed snapshot — what an
  // importer actually sees — is the equality baseline.)
  const util::Json snapshot =
      util::Json::parse(sharded.export_state().dump());

  // Into a differently-sharded server…
  ShardedOakServer reborn(universe_, "busy.com", cfg_, 3);
  reborn.add_rules(rules());
  reborn.import_state(snapshot);
  EXPECT_EQ(reborn.user_count(), sharded.user_count());
  EXPECT_EQ(reborn.reports_processed(), sharded.reports_processed());
  EXPECT_EQ(reborn.merged_decision_log().size(),
            sharded.merged_decision_log().size());
  EXPECT_TRUE(reborn.export_state().at("users") == snapshot.at("users"));

  // …and into the plain single-threaded core.
  OakServer single(universe_, "busy.com", cfg_);
  single.add_rules(rules());
  single.import_state(snapshot);
  EXPECT_EQ(single.user_count(), sharded.user_count());
  EXPECT_TRUE(single.export_state().at("users") == snapshot.at("users"));

  // The reborn server keeps serving: traffic lands on restored profiles.
  const std::string wire = report_wire();
  http::Request post = http::Request::post("http://busy.com/oak/report", wire);
  post.headers.set("Cookie",
                   std::string(http::kOakUserCookie) + "=" + uid_for(0, 0));
  EXPECT_LT(reborn.handle(post, 1000.0).status, 400);
  EXPECT_EQ(reborn.profile(uid_for(0, 0))->reports_received,
            std::size_t(kIterations) + 1);
}

TEST_F(ShardedFixture, RuleChurnRacesWithTraffic) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 4);
  sharded.add_rules(rules());
  std::atomic<bool> stop{false};
  std::thread operator_thread([&] {
    int next = 100;
    while (!stop.load()) {
      Rule r = make_domain_rule("tmp" + std::to_string(next), "x1.net",
                                {"alt.net"});
      r.id = next;
      int id = sharded.add_rule(std::move(r));
      sharded.remove_rule(id, 0.0);
      ++next;
    }
  });
  std::thread auditor([&] {
    while (!stop.load()) {
      SiteAnalytics audit = sharded.audit();
      (void)audit.summary();
      util::Json snap = sharded.export_state();
      EXPECT_EQ(util::Json::parse(snap.dump()).at("site").as_string(),
                "busy.com");
    }
  });
  const std::string wire = report_wire();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const std::string cookie =
          std::string(http::kOakUserCookie) + "=c" + std::to_string(t);
      for (int i = 0; i < 100; ++i) {
        http::Request post =
            http::Request::post("http://busy.com/oak/report", wire);
        post.headers.set("Cookie", cookie);
        EXPECT_LT(sharded.handle(post, double(i)).status, 400);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop = true;
  operator_thread.join();
  auditor.join();
  // The permanent rules survived the churn and are active for the users.
  EXPECT_EQ(sharded.rules().size(), 2u);
  EXPECT_EQ(sharded.profile("c0")->active.count(1), 1u);
}

TEST_F(ShardedFixture, FreshUsersMintDistinctCookies) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  std::atomic<int> cookies_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        http::Request get = http::Request::get(site_.index_url());
        http::Response resp = sharded.handle(get, double(i));
        ASSERT_TRUE(resp.ok());
        if (resp.headers.get("Set-Cookie")) cookies_seen++;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every cookie-less request minted a distinct identity.
  EXPECT_EQ(cookies_seen.load(), kThreads * 25);
  EXPECT_EQ(sharded.user_count(), std::size_t(kThreads) * 25);
}

TEST_F(ShardedFixture, AuditExposesConcurrencyCounters) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  SiteAnalytics audit = sharded.audit();
  const ConcurrencyCounters& c = audit.concurrency();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.shards, 8u);
  // 2 requests per iteration per user.
  EXPECT_EQ(c.requests_handled,
            std::uint64_t(kThreads) * 2 * kIterations * 2);
  // The workload repeats identical questions: the memo must absorb most of
  // the matching, and each shard fetches loader.js at most once.
  EXPECT_GT(c.memo_hit_rate(), 0.5);
  EXPECT_LE(c.script_fetches, 8u);
  EXPECT_TRUE(audit.to_json().find("concurrency") != nullptr);
  // Summary still reflects the merged traffic.
  EXPECT_EQ(audit.summary().users, std::size_t(kThreads) * 2);
}

// The merged snapshot must cover every pipeline stage with the exact event
// totals from all 8 shards — nothing lost, nothing double-counted — and the
// wrapper-level serving-plane tallies fold into the same exposition. Runs
// under TSan in CI: concurrent snapshots race against live recording.
TEST_F(ShardedFixture, MergedMetricsCoverAllStagesUnderConcurrency) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());

  // Snapshot while traffic is in flight (the exposure TSan cares about).
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      obs::MetricsSnapshot s = sharded.metrics_snapshot();
      (void)s.to_prometheus();
    }
  });
  run_concurrent(sharded);
  stop = true;
  snapshotter.join();

  constexpr std::uint64_t kUsers = std::uint64_t(kThreads) * 2;
  constexpr std::uint64_t kReports = kUsers * kIterations;
  obs::MetricsSnapshot snap = sharded.metrics_snapshot();

  // The wrapper tallies are plain atomics folded in at snapshot time; they
  // hold with or without compiled-in obs.
  EXPECT_EQ(snap.counter("oak_requests_total"), kReports * 2);
  EXPECT_DOUBLE_EQ(snap.gauge("oak_shards"), 8.0);

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(snap.counter("oak_reports_ingested_total"), kReports);
    EXPECT_EQ(snap.counter("oak_pages_served_total"), kReports);
    EXPECT_GT(snap.counter("oak_rule_activations_total"), 0u);
    // All five stages, merged across the per-shard registries. decode,
    // group, detect, and match run once per report; modify once per serve
    // that actually rewrote the page.
    for (const char* name :
         {"oak_ingest_decode_seconds", "oak_ingest_group_seconds",
          "oak_ingest_detect_seconds", "oak_ingest_match_seconds"}) {
      const obs::HistogramSnapshot* h = snap.histogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->count(), kReports) << name;
    }
    const obs::HistogramSnapshot* modify =
        snap.histogram("oak_serve_modify_seconds");
    ASSERT_NE(modify, nullptr);
    EXPECT_GT(modify->count(), 0u);
    EXPECT_EQ(snap.histogram("oak_ingest_report_bytes")->count(), kReports);
    // Match-cache counters ride in the same snapshot, and the legacy view
    // projects from it without disagreement.
    const ConcurrencyCounters c =
        ConcurrencyCounters::from_metrics(snap, 8);
    EXPECT_EQ(c.requests_handled, kReports * 2);
    EXPECT_GT(c.memo_hit_rate(), 0.5);
    // Both expositions render the merged data.
    const std::string text = sharded.metrics_text();
    EXPECT_NE(text.find("# TYPE oak_ingest_decode_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("oak_shards 8"), std::string::npos);
    const util::Json j = util::Json::parse(sharded.metrics_json().dump());
    EXPECT_EQ(j.at("counters").at("oak_reports_ingested_total").as_int(),
              static_cast<std::int64_t>(kReports));
  }
}

}  // namespace
}  // namespace oak::core
