#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace oakbench::ref {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double mad(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::fabs(x - m));
  return median(std::move(dev));
}

Verdict detect(const std::vector<Sample>& samples, std::size_t num_servers) {
  std::vector<double> time_sum(num_servers, 0.0), tput_sum(num_servers, 0.0);
  std::vector<std::size_t> time_n(num_servers, 0), tput_n(num_servers, 0);
  for (const Sample& s : samples) {
    if (s.size < kSmallBytes) {
      time_sum[s.server] += s.time_s;
      ++time_n[s.server];
    } else if (s.time_s > 0.0) {
      tput_sum[s.server] += static_cast<double>(s.size) / s.time_s;
      ++tput_n[s.server];
    }
  }
  Verdict v;
  // Per server: mean small-object time and mean large-object throughput.
  std::vector<double> avg_time(num_servers, 0.0), avg_tput(num_servers, 0.0);
  std::vector<double> times, tputs;
  for (std::size_t i = 0; i < num_servers; ++i) {
    if (time_n[i] > 0) {
      avg_time[i] = time_sum[i] / static_cast<double>(time_n[i]);
      times.push_back(avg_time[i]);
    }
    if (tput_n[i] > 0) {
      avg_tput[i] = tput_sum[i] / static_cast<double>(tput_n[i]);
      tputs.push_back(avg_tput[i]);
    }
  }
  auto bound = [](const std::vector<double>& xs, double sign) {
    Bound b;
    b.checked = xs.size() >= kMinPopulation;
    b.med = median(xs);
    b.mad = mad(xs);
    b.limit = b.med + sign * kMadK * b.mad;
    return b;
  };
  v.time = bound(times, +1.0);
  v.tput = bound(tputs, -1.0);

  v.margin = std::numeric_limits<double>::infinity();
  auto near = [&](double x, double limit) {
    const double scale = std::max(std::fabs(limit), 1e-12);
    v.margin = std::min(v.margin, std::fabs(x - limit) / scale);
  };
  for (std::size_t i = 0; i < num_servers; ++i) {
    bool slow = false;
    if (v.time.checked && time_n[i] > 0) {
      near(avg_time[i], v.time.limit);
      slow = avg_time[i] > v.time.limit;
    }
    if (v.tput.checked && tput_n[i] > 0) {
      near(avg_tput[i], v.tput.limit);
      slow = slow || avg_tput[i] < v.tput.limit;
    }
    if (slow) v.violators.push_back(i);
  }
  return v;
}

bool connects(const std::string& rule_text,
              const std::vector<std::string>& hosts,
              const std::vector<Script>& scripts) {
  for (const std::string& h : hosts) {
    if (rule_text.find(h) != std::string::npos) return true;
  }
  for (const Script& s : scripts) {
    if (rule_text.find(s.host) == std::string::npos) continue;
    for (const std::string& h : hosts) {
      if (s.body.find(h) != std::string::npos) return true;
    }
  }
  return false;
}

std::string rewrite(
    std::string html,
    const std::vector<std::pair<std::string, std::string>>& edits) {
  for (const auto& [from, to] : edits) {
    std::string out;
    out.reserve(html.size());
    std::size_t pos = 0;
    for (;;) {
      const std::size_t hit = html.find(from, pos);
      if (hit == std::string::npos) break;
      out.append(html, pos, hit - pos);
      out += to;
      pos = hit + from.size();
    }
    out.append(html, pos, std::string::npos);
    html = std::move(out);
  }
  return html;
}

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::fprintf(stderr, "%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<Sample> small_only(const std::vector<double>& times) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < times.size(); ++i) out.push_back({i, 1000, times[i]});
  return out;
}

}  // namespace

int self_test() {
  failures = 0;
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even-length sample is the mean of the middle pair");
  expect(median({5, 1, 3}) == 3.0, "median of an odd-length sample is the middle value");
  expect(mad({1, 2, 3, 4, 100}) == 1.0, "MAD of {1,2,3,4,100} is 1");
  expect(mad({7}) == 0.0, "MAD of one sample is 0");

  {
    // Five of six servers at 0.1 s: MAD 0, so the limit is the median and
    // only a server strictly above it is a violator.
    Verdict v = detect(small_only({0.1, 0.1, 0.1, 0.1, 0.2, 0.1}), 6);
    expect(v.time.mad == 0.0 && v.time.limit == 0.1, "MAD-0 population: limit equals the median");
    expect(v.violators == std::vector<std::size_t>{4}, "MAD-0 population: only the server above the median violates");
  }
  {
    // median 0.11, deviations {.01,.01,.01,0,.89} → MAD 0.01, limit 0.13.
    Verdict v = detect(small_only({0.1, 0.1, 0.12, 0.11, 1.0}), 5);
    expect(std::fabs(v.time.limit - 0.13) < 1e-12, "five servers: limit = 0.11 + 2*0.01");
    expect(v.violators == std::vector<std::size_t>{4}, "five servers: the 1.0 s server violates, 0.12 s does not");
    Verdict four = detect(small_only({0.1, 0.1, 0.12, 1.0}), 4);
    expect(!four.time.checked && four.violators.empty(), "four servers are below min_population: nothing is flagged");
  }
  {
    // 51199 bytes is small (timed); 51200 bytes is large (throughput).
    std::vector<Sample> s = small_only({0.05, 0.05, 0.05, 0.05, 0.05});
    s[4] = {4, 51199, 1.0};
    expect(detect(s, 5).violators == std::vector<std::size_t>{4}, "51199-byte object is judged by time");
    s[4] = {4, 51200, 1.0};
    Verdict v = detect(s, 5);
    expect(!v.time.checked && !v.tput.checked && v.violators.empty(),
           "51200-byte object is judged by throughput, leaving four timed servers");
  }
  {
    // tputs {1e6, 8e5, 1e6, 1.25e6, 1e5}: median 1e6, MAD 2e5, limit 6e5.
    std::vector<Sample> s;
    const double t[] = {0.1, 0.125, 0.1, 0.08, 1.0};
    for (std::size_t i = 0; i < 5; ++i) s.push_back({i, 100000, t[i]});
    Verdict v = detect(s, 5);
    expect(std::fabs(v.tput.limit - 6e5) < 1e-6, "throughput limit = 1e6 - 2*2e5");
    expect(v.violators == std::vector<std::size_t>{4}, "only the 1e5 B/s server is a throughput violator");
  }
  {
    const std::string tag = "<script src=\"http://t.test/tag.js\"></script>";
    const std::vector<Script> scripts = {{"t.test", "load('http://b.test/p.gif')"},
                                         {"u.test", "load('http://c.test/p.gif')"}};
    expect(connects("<img src=\"http://a.test/x.png\">", {"a.test"}, {}), "tier 1: src host");
    expect(connects("<script>load('a.test')</script>", {"z.test", "a.test"}, {}), "tier 2: any host of the server mentioned");
    expect(!connects("<img src=\"http://a.test/x.png\">", {"b.test"}, scripts), "unrelated host does not connect");
    expect(connects(tag, {"b.test"}, scripts), "tier 3: named script's body mentions the host");
    expect(!connects(tag, {"c.test"}, scripts), "tier 3: a script the rule does not name is not followed");
  }
  {
    expect(rewrite("<a>X</a><b>X</b>Y", {{"X", "XX"}, {"Y", ""}}) == "<a>XX</a><b>XX</b>",
           "rewrite replaces every occurrence once and removes with an empty alternative");
    expect(rewrite("ab", {{"a", "b"}, {"b", "c"}}) == "cc", "later edits see earlier edits' output");
    expect(rewrite("page", {}) == "page", "no active rule: original bytes");
  }
  return failures;
}

}  // namespace oakbench::ref
