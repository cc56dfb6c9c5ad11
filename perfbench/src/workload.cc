#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "reference.h"

namespace oakbench {

namespace {

// splitmix64: small, seedable, and independent of the program's util::Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t s_;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x2545f4914f6cdd1dull ^ (b + 0x9e3779b97f4a7c15ull));
  return r.next();
}

std::string fmt(const char* f, auto... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, f, args...);
  return std::string(buf, std::size_t(std::max(n, 0)));
}

// Prints a time the way it goes on the wire and returns the value the
// server will parse back from it.
double wire_number(const char* f, double x, std::string& out) {
  const std::string s = fmt(f, x);
  out += s;
  return std::strtod(s.c_str(), nullptr);
}

std::string escape_rule_string(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* kWords[] = {"oak", "user", "targeted", "web", "performance",
                        "report", "server", "median", "provider", "object",
                        "latency", "mirror", "page", "load", "client", "rule"};

std::string filler(std::size_t n, std::size_t words) {
  std::string p = "<p class=\"copy\">";
  for (std::size_t i = 0; i < words; ++i) {
    if (i) p += ' ';
    p += kWords[(n * 7 + i * 3 + i * i) % 16];
  }
  return p + ".</p>\n";
}

ServerSpec server(std::string ip, std::vector<std::string> hosts) {
  return ServerSpec{std::move(ip), std::move(hosts)};
}

void add_object(Workload& w, std::size_t server, const std::string& host,
                const std::string& path, std::uint64_t size) {
  w.objects.push_back(ObjectSpec{"http://" + host + path, host, server, size});
}

// Adds `n` users and returns their indices in a seeded random order: the
// workloads hand outages out along it, in fixed numbers per server, so the
// seed moves which users suffer them but never how much work a run does.
std::vector<std::size_t> add_users(Workload& w, std::size_t n, std::uint64_t stream) {
  for (std::size_t u = 0; u < n; ++u) w.users.push_back({fmt("b%05zu", u)});
  std::vector<std::size_t> order(n);
  for (std::size_t u = 0; u < n; ++u) order[u] = u;
  Rng rng(mix(w.seed, stream));
  for (std::size_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  return order;
}

// Alternate ±10% around each server's mean within each size class so a
// server's average is exactly its drawn mean before printing.
void assign_jitter(Workload& w) {
  std::map<std::pair<std::size_t, bool>, std::vector<ObjectSpec*>> groups;
  for (ObjectSpec& o : w.objects) {
    groups[{o.server, o.size < ref::kSmallBytes}].push_back(&o);
  }
  for (auto& [key, objs] : groups) {
    for (std::size_t i = 0; i < objs.size(); ++i) {
      const bool unpaired = objs.size() % 2 == 1 && i + 1 == objs.size();
      objs[i]->jitter = unpaired ? 0.0 : (i % 2 == 0 ? 0.1 : -0.1);
    }
  }
}

// --- large_reports --------------------------------------------------------
// A media-heavy page: 137 report entries over 30 servers (23 media servers
// with two hostnames each, 6 tag servers, the origin), small and large
// objects, 12 rules over all three matching tiers, 512 users. About one
// user in nine sees one server slowed.
void build_large_reports(Workload& w) {
  w.rounds_per_second = 8.5;
  w.hot_capacity = 0;
  w.warmup_rounds = 8;
  const std::size_t users = 512;

  w.servers.push_back(server("10.0.0.1", {kSiteHost}));
  for (int s = 1; s <= 23; ++s) {
    w.servers.push_back(server(fmt("10.0.1.%d", s),
                               {fmt("m%02da.media.test", s),
                                fmt("m%02db.media.test", s)}));
  }
  for (int t = 24; t <= 29; ++t) {
    w.servers.push_back(server(fmt("10.0.2.%d", t), {fmt("tag%02d.tags.test", t)}));
  }

  std::string head =
      "<!doctype html><html><head><title>gallery</title>\n"
      "<link rel=\"stylesheet\" href=\"/static/main.css\">\n"
      "<script src=\"/static/app.js\"></script>\n";
  std::string body = "</head><body>\n<img src=\"/static/logo.png\" alt=\"logo\">\n"
                     "<img src=\"/static/hero.jpg\" alt=\"hero\">\n";
  add_object(w, 0, kSiteHost, "/static/main.css", 14000);
  add_object(w, 0, kSiteHost, "/static/app.js", 38000);
  add_object(w, 0, kSiteHost, "/static/logo.png", 9000);
  add_object(w, 0, kSiteHost, "/static/hero.jpg", 240000);

  std::vector<std::string> tier1, tier2;
  for (std::size_t s = 1; s <= 23; ++s) {
    const std::string a = w.servers[s].hosts[0];
    const std::string b = w.servers[s].hosts[1];
    const std::uint64_t sizes[5] = {2000 + s * 7919 % 36000, 3000 + s * 104729 % 30000,
                                    1500 + s * 3571 % 20000, 80000 + s * 7907 % 900000,
                                    600000 + s * 15485863 % 1400000};
    const std::string paths[5] = {fmt("/img/%zu-0.jpg", s), fmt("/img/%zu-1.png", s),
                                  fmt("/thumb/%zu-2.webp", s), fmt("/photo/%zu-3.jpg", s),
                                  fmt("/video/%zu-4.mp4", s)};
    const std::string hosts[5] = {a, b, a, b, a};
    for (int k = 0; k < 5; ++k) add_object(w, s, hosts[k], paths[k], sizes[k]);

    const std::string img0 = fmt("<img src=\"http://%s%s\" alt=\"m-%zu-0\" loading=\"lazy\">",
                                 a.c_str(), paths[0].c_str(), s);
    const std::string img1 = fmt("<img src=\"http://%s%s\" alt=\"m-%zu-1\">", b.c_str(),
                                 paths[1].c_str(), s);
    const std::string thumb = fmt("<script>oak.lazy(\"//%s%s\")</script>", a.c_str(),
                                  paths[2].c_str());
    const std::string photo = fmt("<img src=\"http://%s%s\" alt=\"m-%zu-3\">", b.c_str(),
                                  paths[3].c_str(), s);
    const std::string video = fmt("<video src=\"http://%s%s\" preload=\"none\"></video>",
                                  a.c_str(), paths[4].c_str());
    body += "<figure>" + img0 + img1 + thumb + photo + video + "</figure>\n";
    body += filler(s, 24);
    if (s <= 4) tier1.push_back(img0);
    if (s >= 5 && s <= 7) tier2.push_back(thumb);
  }
  for (std::size_t s = 8; s <= 19; ++s) {
    add_object(w, s, w.servers[s].hosts[0], "/px/b.gif", 43);
  }
  std::vector<std::string> tags;
  for (std::size_t t = 24; t <= 29; ++t) {
    const std::string host = w.servers[t].hosts[0];
    const std::string url = "http://" + host + "/tag.js";
    const std::size_t first = 8 + 2 * (t - 24);
    std::string script = "(function(){var q=[];\n";
    for (std::size_t s : {first, first + 1}) {
      script += "q.push(\"http://" + w.servers[s].hosts[0] + "/px/b.gif\");\n";
    }
    script += "/* " + std::string(4000, 'x') + " */\nq.forEach(oak.beacon);})();\n";
    w.objects.push_back(ObjectSpec{url, host, t, 5000 + t * 131});
    w.scripts.emplace_back(url, script);
    const std::string tag = "<script src=\"" + url + "\" async></script>";
    body += tag + "\n";
    tags.push_back(tag);
  }
  w.page_html = head + body + "</body></html>\n";

  for (std::size_t i = 0; i < tier1.size(); ++i) {
    std::string alt = tier1[i];
    const std::string& host = w.servers[i + 1].hosts[0];
    alt.replace(alt.find(host), host.size(), fmt("m%02zua.mirror.test", i + 1));
    w.rules.push_back({fmt("t1-media-%zu", i + 1), 2, tier1[i], alt});
  }
  for (std::size_t i = 0; i < tier2.size(); ++i) {
    w.rules.push_back({fmt("t2-lazy-%zu", i + 5), 3, tier2[i],
                       fmt("<img src=\"http://static.mirror.test/ph/%zu.png\" alt=\"placeholder\">", i + 5)});
  }
  for (std::size_t i = 0; i < 3; ++i) {
    w.rules.push_back({fmt("t3-tag-%zu", i + 24), 1, tags[i], ""});
  }
  w.rules.push_back({"domain-14", 2, "m14a.media.test", "m14a.mirror.test"});
  w.rules.push_back({"domain-15", 2, "m15b.media.test", "m15b.mirror.test"});

  // Every server but the origin is the outage of exactly two users (58,
  // about one user in nine); the seed picks which users.
  const std::vector<std::size_t> order = add_users(w, users, 0x6c61726765ull);
  for (std::size_t i = 0; i < 2 * 29; ++i) w.users[order[i]].outage = {1 + i % 29};
}

// --- many_rules -----------------------------------------------------------
// One large page (about 53 KB) carrying 300 rule blocks (25 per provider:
// 9 src, 8 inline text, 8 external-script tags) between short paragraphs
// of copy; 39-entry reports over 19 servers; 240 users. Every user has one
// outage provider and half of them a second, so each holds dozens of
// active rules.
void build_many_rules(Workload& w) {
  w.rounds_per_second = 4.0;
  w.hot_capacity = 0;
  w.warmup_rounds = 7;
  const std::size_t users = 240;
  const std::size_t providers = 12;

  w.servers.push_back(server("10.0.0.1", {kSiteHost}));
  for (std::size_t p = 1; p <= providers; ++p) {
    w.servers.push_back(server(fmt("10.0.1.%zu", p), {fmt("p%02zu.prov.test", p)}));
  }
  for (std::size_t t = 13; t <= 18; ++t) {
    w.servers.push_back(server(fmt("10.0.2.%zu", t), {fmt("t%02zu.tags.test", t)}));
  }
  auto tag_for = [](std::size_t p) { return 13 + (p - 1) / 2; };

  add_object(w, 0, kSiteHost, "/static/site.css", 11000);
  add_object(w, 0, kSiteHost, "/static/site.js", 26000);
  add_object(w, 0, kSiteHost, "/static/logo.png", 7000);
  for (std::size_t p = 1; p <= providers; ++p) {
    const std::string& h = w.servers[p].hosts[0];
    add_object(w, p, h, "/img/a.png", 4000 + p * 977 % 20000);
    add_object(w, p, h, "/px/b.gif", 43);
    if (p <= 6) add_object(w, p, h, "/media/v.mp4", 300000 + p * 41233);
  }
  for (std::size_t t = 13; t <= 18; ++t) {
    const std::string& host = w.servers[t].hosts[0];
    const std::string url = "http://" + host + "/tag.js";
    std::string script = "(function(){\n";
    for (std::size_t p = 2 * (t - 13) + 1; p <= 2 * (t - 13) + 2; ++p) {
      script += "oak.beacon(\"http://" + w.servers[p].hosts[0] + "/px/b.gif\");\n";
    }
    script += "/* " + std::string(5000, 'y') + " */})();\n";
    w.objects.push_back(ObjectSpec{url, host, t, 6000 + t * 97});
    w.scripts.emplace_back(url, script);
  }

  std::string html =
      "<!doctype html><html><head><title>portal</title>\n"
      "<link rel=\"stylesheet\" href=\"/static/site.css\">\n"
      "<script src=\"/static/site.js\"></script></head><body>\n"
      "<img src=\"/static/logo.png\" alt=\"logo\">\n";
  for (std::size_t b = 0; b < providers * 25; ++b) {
    const std::size_t p = b % providers + 1;
    const std::size_t j = b / providers;
    const std::string& host = w.servers[p].hosts[0];
    RuleSpec r;
    if (j % 3 == 0) {
      r.name = fmt("src-b%03zu", b);
      r.type = 2;
      r.text = fmt("<img src=\"http://%s/img/a.png\" data-slot=\"b%03zu\" width=\"300\" height=\"250\">",
                   host.c_str(), b);
      r.alternative = fmt("<img src=\"http://p%02zu.mirror.test/img/a.png\" data-slot=\"b%03zu\" width=\"300\" height=\"250\">",
                          p, b);
    } else if (j % 3 == 1) {
      r.name = fmt("inline-b%03zu", b);
      r.type = 3;
      r.text = fmt("<script>oak.slot(\"b%03zu\",\"%s\",\"/w/b%03zu.js\")</script>", b,
                   host.c_str(), b);
      r.alternative = fmt("<div class=\"slot\" data-slot=\"b%03zu\">reserved</div>", b);
    } else {
      r.name = fmt("tag-b%03zu", b);
      r.type = 1;
      r.text = fmt("<script src=\"http://%s/tag.js\" data-slot=\"b%03zu\" async></script>",
                   w.servers[tag_for(p)].hosts[0].c_str(), b);
    }
    html += r.text + "\n" + filler(b, 12);
    w.rules.push_back(std::move(r));
  }
  w.page_html = html + "</body></html>\n";

  // Each provider is the outage of 20 users; for half of them the provider
  // that shares its tag script is out too. The seed picks which users.
  const std::vector<std::size_t> order = add_users(w, users, 0x72756c6573ull);
  for (std::size_t i = 0; i < users; ++i) {
    const std::size_t p = 1 + i % providers;
    w.users[order[i]].outage = {p};
    if (i < users / 2) w.users[order[i]].outage.push_back(p % 2 == 1 ? p + 1 : p - 1);
  }
}

// --- cold_restart ---------------------------------------------------------
// 4096 users, 16x the hot tier (64 slots in each of 4 shards); 16-entry
// reports over 10 servers; 18 rules. One user in four sees an outage.
void build_cold_restart(Workload& w) {
  w.rounds_per_second = 1.1;
  w.hot_capacity = 64;
  w.durability = true;
  w.compact_threshold_bytes = 4ull << 20;
  w.warmup_rounds = 1;
  const std::size_t users = 4096;
  const std::size_t providers = 9;
  // A window is one round: every window then holds two or three of the
  // round's compactions instead of some windows none.
  w.window_visits = users;

  w.servers.push_back(server("10.0.0.1", {kSiteHost}));
  for (std::size_t p = 1; p <= providers; ++p) {
    w.servers.push_back(server(fmt("10.0.1.%zu", p), {fmt("c%02zu.prov.test", p)}));
  }
  add_object(w, 0, kSiteHost, "/static/a.css", 9000);
  add_object(w, 0, kSiteHost, "/static/b.js", 21000);
  for (std::size_t p = 1; p <= providers; ++p) {
    add_object(w, p, w.servers[p].hosts[0], "/i.png", 3000 + p * 1319 % 9000);
  }
  for (std::size_t p = 1; p <= 5; ++p) {
    add_object(w, p, w.servers[p].hosts[0], "/m.jpg", 120000 + p * 27211);
  }

  std::string html =
      "<!doctype html><html><head><title>news</title>\n"
      "<link rel=\"stylesheet\" href=\"/static/a.css\">\n"
      "<script src=\"/static/b.js\"></script></head><body>\n";
  for (std::size_t p = 1; p <= providers; ++p) {
    const std::string& host = w.servers[p].hosts[0];
    RuleSpec src{fmt("src-c%02zu", p), 2,
                 fmt("<img src=\"http://%s/i.png\" data-slot=\"a%02zu\">", host.c_str(), p),
                 fmt("<img src=\"http://c%02zu.mirror.test/i.png\" data-slot=\"a%02zu\">", p, p)};
    RuleSpec inl{fmt("inline-c%02zu", p), 3,
                 fmt("<script>oak.slot(\"b%02zu\",\"%s\")</script>", p, host.c_str()),
                 fmt("<div data-slot=\"b%02zu\"></div>", p)};
    html += src.text + "\n" + filler(p, 30) + inl.text + "\n" + filler(p + 50, 30);
    w.rules.push_back(std::move(src));
    w.rules.push_back(std::move(inl));
  }
  w.page_html = html + "</body></html>\n";

  // Each provider is the outage of 114 users (1026, one user in four); the
  // seed picks which users.
  const std::vector<std::size_t> order = add_users(w, users, 0x636f6c64ull);
  for (std::size_t i = 0; i < 114 * providers; ++i) w.users[order[i]].outage = {1 + i % providers};
}

// Spread of healthy servers around the user's typical server, in units of
// 20%: a third of the population one unit slow, a third one unit fast, a
// third in between, each value ±0.1 unit. The population's MAD is then
// about one unit while no healthy server is more than 1.1 units out, so
// median ± 2·MAD holds every healthy server and only the injected outages
// (8x) cross it.
std::vector<double> healthy_spread(std::size_t n, Rng& rng) {
  std::vector<double> units(n);
  for (std::size_t i = 0; i < n; ++i) units[i] = double(i % 3) - 1.0;
  for (std::size_t i = n; i > 1; --i) std::swap(units[i - 1], units[rng.below(i)]);
  for (double& x : units) x = 1.0 + 0.2 * (x + 0.1 * (2.0 * rng.uniform() - 1.0));
  return units;
}

// One user's report: per-server means around the user's link speed, spread
// by healthy_spread, outage servers 8x slower, each object ±10% around its
// server's mean. Redrawn (deterministically) in the vanishing case that a
// server's mean lands within 1e-6 of the median ± 2·MAD limit, where print
// rounding could decide the verdict.
ref::Verdict make_report(const Workload& w, std::size_t index, UserInput& user) {
  const std::string page_url = std::string("http://") + kSiteHost + kPagePath;
  std::vector<std::size_t> timed, metered;  // servers with small / large objects
  for (std::size_t s = 0; s < w.servers.size(); ++s) {
    bool small = false, large = false;
    for (const ObjectSpec& o : w.objects) {
      if (o.server != s) continue;
      (o.size < ref::kSmallBytes ? small : large) = true;
    }
    if (small) timed.push_back(s);
    if (large) metered.push_back(s);
  }
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(mix(mix(w.seed, index), attempt));
    const double link = 0.6 + 0.8 * rng.uniform();
    auto slowed = [&](std::size_t s) {
      return std::find(user.outage.begin(), user.outage.end(), s) != user.outage.end();
    };
    std::vector<double> mean_time(w.servers.size()), mean_tput(w.servers.size());
    const std::vector<double> time_spread = healthy_spread(timed.size(), rng);
    const std::vector<double> tput_spread = healthy_spread(metered.size(), rng);
    for (std::size_t i = 0; i < timed.size(); ++i) {
      const std::size_t s = timed[i];
      mean_time[s] = link * 0.040 * time_spread[i] * (slowed(s) ? 8.0 : 1.0);
    }
    for (std::size_t i = 0; i < metered.size(); ++i) {
      const std::size_t s = metered[i];
      mean_tput[s] = 2.5e6 / link / tput_spread[i] / (slowed(s) ? 8.0 : 1.0);
    }
    std::vector<ref::Sample> samples;
    std::string entries;
    double plt = 0.0;
    for (std::size_t i = 0; i < w.objects.size(); ++i) {
      const ObjectSpec& o = w.objects[i];
      const double t = o.size < ref::kSmallBytes
                           ? mean_time[o.server] * (1.0 + o.jitter)
                           : double(o.size) / (mean_tput[o.server] * (1.0 + o.jitter));
      if (i) entries += ',';
      entries += "{\"url\":\"" + o.url + "\",\"host\":\"" + o.host + "\",\"ip\":\"" +
                 w.servers[o.server].ip + "\",\"size\":" + std::to_string(o.size) +
                 ",\"start\":";
      const double start = wire_number("%.4f", 0.004 * double(i), entries);
      entries += ",\"time\":";
      const double time_s = wire_number("%.6f", t, entries);
      entries += '}';
      samples.push_back({o.server, o.size, time_s});
      plt = std::max(plt, start + time_s);
    }
    ref::Verdict v = ref::detect(samples, w.servers.size());
    if (v.margin < 1e-6) continue;
    user.report = "{\"uid\":\"" + user.uid + "\",\"page\":\"" + page_url + "\",\"plt\":" +
                  fmt("%.4f", plt + 0.1) + ",\"entries\":[" + entries + "]}";
    return v;
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"large_reports", "many_rules",
                                                 "cold_restart"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "large_reports") {
    build_large_reports(w);
  } else if (name == "many_rules") {
    build_many_rules(w);
  } else if (name == "cold_restart") {
    build_cold_restart(w);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  assign_jitter(w);

  for (const RuleSpec& r : w.rules) {
    w.rule_file += "rule \"" + r.name + "\" {\n  type: " + std::to_string(r.type) +
                   "\n  default: \"" + escape_rule_string(r.text) + "\"\n";
    if (r.type != 1) w.rule_file += "  alt: \"" + escape_rule_string(r.alternative) + "\"\n";
    w.rule_file += "  ttl: 0\n  scope: \"*\"\n  min_violations: 1\n}\n";
    if (w.page_html.find(r.text) == std::string::npos) {
      throw std::logic_error("rule " + r.name + " does not occur in the page");
    }
  }

  // Which rule texts connect to which servers (user-independent: every
  // report names the same objects and scripts).
  std::vector<ref::Script> scripts;
  for (const auto& [url, body] : w.scripts) {
    const std::size_t host_begin = url.find("://") + 3;
    scripts.push_back({url.substr(host_begin, url.find('/', host_begin) - host_begin), body});
  }
  std::vector<std::vector<char>> connects(w.rules.size(), std::vector<char>(w.servers.size(), 0));
  for (std::size_t r = 0; r < w.rules.size(); ++r) {
    for (std::size_t s = 0; s < w.servers.size(); ++s) {
      connects[r][s] = ref::connects(w.rules[r].text, w.servers[s].hosts, scripts);
      // An alternative that connects to a reported server would bring in
      // the §4.2.3 history review, which the prediction leaves out.
      if (!w.rules[r].alternative.empty() &&
          ref::connects(w.rules[r].alternative, w.servers[s].hosts, scripts)) {
        throw std::logic_error("alternative of " + w.rules[r].name + " connects to a server");
      }
    }
  }

  std::map<std::vector<int>, std::size_t> variants;
  variants[{}] = 0;
  w.pages.push_back(w.page_html);
  for (std::size_t u = 0; u < w.users.size(); ++u) {
    UserInput& user = w.users[u];
    ref::Verdict v = make_report(w, u, user);
    user.violators = v.violators;
    std::vector<std::pair<std::string, std::string>> edits;
    for (std::size_t r = 0; r < w.rules.size(); ++r) {
      for (std::size_t s : v.violators) {
        if (connects[r][s]) {
          user.active.push_back(int(r + 1));
          edits.emplace_back(w.rules[r].text, w.rules[r].alternative);
          break;
        }
      }
    }
    auto [it, fresh] = variants.emplace(user.active, w.pages.size());
    if (fresh) w.pages.push_back(ref::rewrite(w.page_html, edits));
    user.page = it->second;
  }
  return w;
}

}  // namespace oakbench
