// Seeded inputs for the three workloads, and what the reference model
// predicts Oak must answer to them.
//
// Everything a run sends is made here from the seed: the site's HTML and
// the script bodies Oak fetches for tier-3 matching, the rule file, and one
// report per user. No program module (browser, net, page::Corpus) takes
// part, so a change to those modules cannot change the workload. The seed
// moves timings and which users suffer an outage; the page, the rule set
// and the object list are fixed per workload, so every seed asks for the
// same amount of work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace oakbench {

// Fixed thread counts. One closed-loop connection, driven from the main
// thread, feeds one wire loop, which runs report POSTs inline, and one
// page worker: at most three busy threads on the 4 cores the figures in
// README.md were taken on. Requests reach the server in one fixed order,
// so the program's counts repeat exactly from run to run.
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kWireLoops = 1;
inline constexpr std::size_t kWireWorkers = 1;

inline constexpr const char* kSiteHost = "www.bench.test";
inline constexpr const char* kPagePath = "/index.html";
inline constexpr const char* kReportPath = "/oak/report";

struct ServerSpec {
  std::string ip;
  std::vector<std::string> hosts;
};

struct ObjectSpec {
  std::string url;
  std::string host;
  std::size_t server = 0;
  std::uint64_t size = 0;
  double jitter = 0.0;  // per-object spread around the server's mean
};

struct RuleSpec {
  std::string name;
  int type = 2;             // paper §4.1 rule type
  std::string text;         // default block, verbatim in the page
  std::string alternative;  // empty for type 1
};

struct UserInput {
  std::string uid;
  std::string report;                  // JSON body of the report POST
  std::vector<std::size_t> outage;     // servers slowed for this user
  std::vector<std::size_t> violators;  // reference median + 2·MAD verdict
  std::vector<int> active;             // rule ids Oak must hold, ascending
  std::size_t page = 0;                // index into Workload::pages
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;

  // Serving configuration.
  std::size_t hot_capacity = 0;  // per shard; 0 = untiered
  bool durability = false;
  std::uint64_t compact_threshold_bytes = 0;
  std::size_t warmup_rounds = 2;
  // Timed rounds per second of --seconds. The timed window is a fixed
  // number of whole rounds, seconds × this, so every run of a workload
  // does the same work and the program's own counts (activations,
  // compactions, fault-ins) repeat exactly; it lasts about --seconds on
  // the 4-core host of README.md.
  double rounds_per_second = 1.0;
  // Visits per measurement window (see window_means in main.cc).
  std::size_t window_visits = 1024;

  std::string page_html;
  std::vector<std::pair<std::string, std::string>> scripts;  // url, body
  std::vector<ServerSpec> servers;
  std::vector<ObjectSpec> objects;  // report entries, in report order
  std::vector<RuleSpec> rules;      // rule id = index + 1
  std::string rule_file;
  std::vector<UserInput> users;
  // Expected page bodies, one per distinct active-rule set; pages[0] is
  // the original HTML (no active rule).
  std::vector<std::string> pages;
};

// Names of the workloads make_workload accepts.
const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown name, std::logic_error when
// the generated inputs break an invariant the checks rely on.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace oakbench
