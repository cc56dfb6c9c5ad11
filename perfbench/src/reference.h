// The benchmark's own model of what Oak must do with the inputs it is sent.
//
// Nothing here calls into src/: the median/MAD violator rule (paper §4.2.1),
// the three-tier connection-dependency test (§4.2.2) and the page rewrite
// (§4.3) are re-derived from the paper so that the benchmark can check the
// program's outputs instead of trusting them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace oakbench::ref {

inline constexpr std::uint64_t kSmallBytes = 50 * 1024;  // < is small
inline constexpr double kMadK = 2.0;
inline constexpr std::size_t kMinPopulation = 5;

double median(std::vector<double> xs);
// Median of absolute deviations from the median; 0 below two samples.
double mad(const std::vector<double>& xs);

// One fetched object as the report states it.
struct Sample {
  std::size_t server = 0;  // index of the contacted IP
  std::uint64_t size = 0;
  double time_s = 0.0;
};

// The median ± k·MAD test over one metric's per-server population.
struct Bound {
  bool checked = false;  // population reached kMinPopulation
  double med = 0.0;
  double mad = 0.0;
  double limit = 0.0;  // med + k·MAD (time) or med − k·MAD (throughput)
};

struct Verdict {
  std::vector<std::size_t> violators;  // ascending server index
  Bound time;
  Bound tput;
  // Smallest relative distance of any checked value from its limit — how
  // far the inputs sit from a decision that rounding could flip.
  double margin = 0.0;
};

Verdict detect(const std::vector<Sample>& samples, std::size_t num_servers);

// A script the report names that Oak can fetch: its host and its body.
struct Script {
  std::string host;
  std::string body;
};

// Does `rule_text` cause a connection to a server known by `hosts`? Tier 1
// (explicit reference) and tier 2 (text mention) both imply the hostname
// occurs in the text; tier 3 follows one external script whose host the
// text names into its body.
bool connects(const std::string& rule_text,
              const std::vector<std::string>& hosts,
              const std::vector<Script>& scripts);

// Apply (default → alternative) edits in order, each replacing every
// non-overlapping occurrence left to right; an empty alternative removes.
std::string rewrite(std::string html,
                    const std::vector<std::pair<std::string, std::string>>& edits);

// Hand-worked cases for the functions above; returns the failure count and
// prints one line per case to stderr.
int self_test();

}  // namespace oakbench::ref
