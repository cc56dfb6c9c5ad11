// oak::wire::Server — the real front door: a multi-loop SO_REUSEPORT epoll
// HTTP/1.1 server feeding ShardedOakServer.
//
// Everything before this ran in-process through Fleet; this module is where
// Oak first faces a hostile byte stream and an open-loop arrival process —
// the two things that kill real ingest tiers. PR 8's single epoll loop
// saturated before the ingest shards did (BENCH_wire.json's 2x overload
// sweep), so the front-end now scales the C10K way: N event loops (default
// min(cores, shards), knob `loops`), each with its own SO_REUSEPORT
// listener, epoll set, TimerWheel and connection table, so the kernel
// spreads accepted connections across cores and no loop ever touches
// another loop's sockets. Architecture:
//
//   kernel SO_REUSEPORT hash
//     ├─► loop 0 ──┐  each loop: accept, parse (RequestParser, hard caps),
//     ├─► loop 1 ──┤  deadlines (per-loop TimerWheel), writev-batched IO
//     └─► loop N ──┘
//          │    │
//          │    └── report POSTs: shard-affine — hash the oak_uid (cookie
//          │        or minted) to its shard and run the request inline on
//          │        the loop thread under that shard's lock
//          │        (ShardedOakServer::handle_for_user), so a connection's
//          │        reports land on their shard with no hand-off instead
//          │        of loop → worker → completion cross-core bounces.
//          └────── pages/admin: shared dispatch queue ──► worker pool
//                    completions (per-loop eventfd) ◄── serialized responses
//
// Robustness posture, in order of the failure modes it defends against:
//
//  * Hostile input: RequestParser enforces the framing caps and answers
//    every malformed request with a 4xx and a close — never a crash, never
//    a 5xx (bench/wire_fuzz gates this under ASan, against a multi-loop
//    server).
//  * Slowloris: each loop's TimerWheel arms one deadline per connection —
//    header deadline while the head trickles in, idle deadline between
//    keep-alive requests, write deadline while a response drains. Expiry
//    answers 408 (header) or just closes (idle/write).
//  * Overload: two shedding layers, both before work is admitted —
//    accept-time connection cap across all loops (immediate 503 + close)
//    and dispatch-queue depth (503 + Retry-After). Inline report POSTs
//    need no layer of their own: each loop runs at most one at a time, so
//    at most loops + worker_threads callers ever wait on shard locks.
//    Load the server cannot serve is refused in O(1) instead of queueing
//    into collapse (bench/load_wire's open-loop sweep gates goodput under
//    2× overload and the multi-loop knee).
//  * Shutdown: request_drain() (or SIGTERM via install_signal_drain) makes
//    every loop stop accepting, lets in-flight requests finish within
//    drain_deadline_s, then runs on_drained once all loops and workers have
//    exited (wired to a final snapshot/compaction). Admitted reports are
//    journaled under the shard lock before their 2xx is written, so a drain
//    — or even a force-close at the deadline — never loses an acknowledged
//    report, whichever loop owned the connection.
//
// Write path: responses are queued per connection and flushed with writev,
// so pipelined responses (and the inline report path's back-to-back 204s)
// coalesce into one syscall instead of one send() each.
//
// Routes:
//   POST <report_path>      report ingest (report_path from OakConfig)
//   GET  /...               page serving with rule modification
//   GET  /metrics           Prometheus text (oak_* + oak_wire_*)
//   GET  /metrics.json      JSON exposition
//   GET  /admin/health      liveness + drain state
//   GET  /admin/rules       rule set, rule-file format (core/rule_parser)
//   POST /admin/rules       append rules (rule-file body) → ids
//   PUT  /admin/rules       replace the rule set
//   DELETE /admin/rules/<id> retire one rule
//   POST /admin/compact     snapshot + journal truncation
// Unroutable methods answer 405 with an Allow header.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sharded_server.h"
#include "obs/metrics.h"
#include "wire/parser.h"
#include "wire/timer_wheel.h"

namespace oak::wire {

struct WireConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() after start()

  // Event loops. 0 = min(hardware cores, oak shard count); each loop gets
  // its own SO_REUSEPORT listener and owns its connections end to end.
  std::size_t loops = 0;

  // Run report POSTs inline on the owning loop thread under the uid's
  // shard lock (shard-affine dispatch). Off = every request
  // takes the worker-pool path, as the PR-8 single-loop front-end did.
  bool affine_ingest = true;

  // Accept-time cap (across all loops): connections beyond this are
  // answered 503 and closed without ever allocating parser state.
  std::size_t max_connections = 1024;
  std::size_t worker_threads = 4;
  // Parsed requests waiting for a worker before new ones are shed 503.
  std::size_t dispatch_depth = 256;
  int retry_after_s = 1;

  ParserLimits limits;

  // Slowloris deadlines (seconds; ≤ 0 disables that deadline).
  double header_deadline_s = 5.0;  // accept/first-byte → complete head
  double idle_deadline_s = 30.0;   // keep-alive gap
  double write_deadline_s = 10.0;  // response flush
  double drain_deadline_s = 5.0;   // graceful-drain budget

  bool metrics = true;
};

class Server {
 public:
  Server(core::ShardedOakServer& oak, WireConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind the SO_REUSEPORT listeners, spawn the event loops and workers.
  // Throws std::runtime_error on socket failures.
  void start();
  // The bound port (after start(); resolves port 0).
  std::uint16_t port() const { return bound_port_; }
  // Event loops actually running (after start(); resolves loops == 0).
  std::size_t loop_count() const { return loops_.size(); }

  // Begin graceful drain: every loop stops accepting, finishes in-flight
  // requests, then the on_drained callback runs and the loops exit.
  // Thread-safe and idempotent; also invoked by the SIGTERM handler.
  void request_drain();
  bool draining() const {
    return drain_flag_.load(std::memory_order_acquire);
  }

  // Wait for the loops and workers to exit (drain completes or the drain
  // deadline force-closes stragglers).
  void join();
  // request_drain() + join().
  void stop();

  // Route SIGTERM (or another signal) to request_drain() for this server.
  // One server per process may hold the handler; async-signal-safe.
  void install_signal_drain(int signo);

  // Runs exactly once, after the last loop exits (all connections closed
  // or the drain deadline fired) and the workers are joined — the
  // final-snapshot hook.
  void set_on_drained(std::function<void()> fn) {
    on_drained_ = std::move(fn);
  }

  // Wire-plane registry (oak_wire_*). The /metrics route merges this with
  // the Oak serving plane's snapshot.
  obs::MetricsRegistry& metrics_registry() { return metrics_; }
  obs::MetricsSnapshot metrics_snapshot() const;

  const WireConfig& config() const { return cfg_; }

 private:
  struct Conn;
  struct Loop;
  struct DispatchItem {
    std::size_t loop_index = 0;
    std::uint64_t conn_id = 0;
    WireRequest req;
    std::string client_ip;
    double admitted_at = 0.0;
  };
  struct CompletionItem {
    std::uint64_t conn_id = 0;
    std::string bytes;        // fully serialized response
    bool keep_alive = true;
    int status = 200;
  };

  void run(Loop& lp);  // one epoll loop (its own thread)
  double now() const;

  // --- Loop-thread only (every member takes its owning Loop).
  int make_listener(bool reuse_port) const;
  void handle_accept(Loop& lp);
  void handle_conn_event(Loop& lp, std::uint64_t id, std::uint32_t events);
  void read_conn(Conn& c);
  // Drive a connection forward: parse and answer pipelined requests until
  // blocked, then flush the queued responses with writev.
  void pump(Conn& c);
  void begin_request(Conn& c);
  void respond_inline(Conn& c, int status, const std::string& body,
                      bool keep_alive,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra_headers = {});
  void deliver(Conn& c, std::string bytes, bool keep_alive, int status);
  // writev until drained or EAGAIN; false on a fatal socket error.
  bool flush_out(Conn& c);
  void on_deadline(Loop& lp, std::uint64_t id);
  void close_conn(Conn& c);
  void arm_timer(Conn& c, int kind, double delay_s);
  void update_epoll(Conn& c, bool want_read, bool want_write);
  void drain_completions(Loop& lp);
  void start_drain_loopside(Loop& lp);
  bool drain_finished(const Loop& lp) const;
  // Shard-affine inline ingest: run the report POST on the loop thread
  // through its uid's shard. Returns false when the request is not an
  // affine-eligible report POST (caller falls back to the worker pool).
  bool try_affine_ingest(Conn& c, WireRequest& req);

  // --- Worker threads.
  void worker_main();
  http::Response route(const DispatchItem& item);
  CompletionItem make_completion(std::uint64_t conn_id, const WireRequest& req,
                                 const http::Response& resp) const;

  static std::string serialize_response(const http::Response& resp,
                                        bool keep_alive, bool head_request);

  core::ShardedOakServer& oak_;
  WireConfig cfg_;
  std::string report_path_;

  std::uint16_t bound_port_ = 0;
  int drain_event_fd_ = -1;  // shared drain wakeup (EPOLLONESHOT per loop)

  std::vector<std::unique_ptr<Loop>> loops_;
  std::thread coordinator_;  // joins loops, stops workers, runs on_drained
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> drain_flag_{false};
  // Connections across every loop, for the accept-time cap.
  std::atomic<std::size_t> total_conns_{0};

  std::chrono::steady_clock::time_point epoch_;

  // Dispatch queue: loops → workers (pages/admin; reports when
  // affine_ingest is off).
  mutable std::mutex dmu_;
  std::condition_variable dcv_;
  std::deque<DispatchItem> dispatch_;
  bool workers_stop_ = false;

  std::function<void()> on_drained_;

  // --- oak_wire_* instruments (null when cfg_.metrics is false). Shared
  // across loops: counters are relaxed atomics, so no loop owns them.
  obs::MetricsRegistry metrics_;
  struct {
    obs::Counter* accepted = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* resp_2xx = nullptr;
    obs::Counter* resp_4xx = nullptr;
    obs::Counter* resp_5xx = nullptr;
    obs::Counter* parse_errors = nullptr;
    obs::Counter* shed_conns = nullptr;
    obs::Counter* shed_dispatch = nullptr;
    obs::Counter* timeout_header = nullptr;
    obs::Counter* timeout_idle = nullptr;
    obs::Counter* timeout_write = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* affine_ingests = nullptr;
    obs::Counter* writev_calls = nullptr;
    obs::Counter* writev_bufs = nullptr;
    obs::Gauge* conns_active = nullptr;
    obs::Gauge* dispatch_depth = nullptr;
    obs::Gauge* draining = nullptr;
    obs::Gauge* loops = nullptr;
    obs::Histogram* request_seconds = nullptr;
  } obs_;
};

}  // namespace oak::wire
