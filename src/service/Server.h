//===- service/Server.h - Persistent scheduling daemon ----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduling-as-a-service: a long-lived Server accepting streams of
/// protocol frames (service/Protocol.h) over stdin/stdout batch mode or
/// a Unix-domain socket, and dispatching solves onto a ThreadPool whose
/// workers keep a persistent lp::SolveContext each — warm simplex
/// workspaces survive across requests, and the process-wide
/// SolutionCache (on by default here) turns repeated submissions of
/// canonically equal loops into verified replays.
///
/// Admission control (docs/SERVICE.md): the queue of queued-plus-running
/// requests is bounded; a full queue or a client exceeding its in-flight
/// cap gets an immediate "retry_after" reply instead of unbounded
/// buffering. Responses are one JSON line each, tagged with the request
/// id; completion order is not arrival order (clients match on id).
///
/// Shutdown is a graceful drain: stop admitting, let in-flight solves
/// finish (their responses are still written), then join the workers.
/// A client vanishing mid-stream cancels its outstanding solves through
/// their per-request cancellation tokens.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SERVICE_SERVER_H
#define MODSCHED_SERVICE_SERVER_H

#include "ilpsched/OptimalScheduler.h"
#include "service/Protocol.h"
#include "support/Cancellation.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace modsched {

class ThreadPool; // support/ThreadPool.h

namespace service {

/// Server configuration; every knob has a MODSCHED_SERVICE_* override
/// (see fromEnv and docs/SERVICE.md).
struct ServerOptions {
  /// Solver worker threads (one persistent lp::SolveContext each).
  int Workers = 4;
  /// Queued-plus-running request bound; admission beyond it sheds.
  int QueueLimit = 64;
  /// Per-client in-flight cap (client = one stream / connection id).
  int ClientInFlightLimit = 16;
  /// Wall-clock budget for requests that do not ask for one.
  double DefaultTimeLimitSeconds = 10.0;
  /// Hard ceiling a request's time=<sec> is clamped to.
  double MaxTimeLimitSeconds = 60.0;
  /// Node budget for requests that do not ask for one (INT64_MAX = off).
  std::int64_t DefaultNodeLimit = INT64_MAX;
  /// Consult/populate the process-wide SolutionCache. ON by default in
  /// the server — replay is the daemon's whole point.
  bool Cache = true;
  /// Exact engine behind every attempt.
  SchedulerBackend Backend = defaultSchedulerBackend();
  /// Milliseconds suggested to shed clients ("retry_after_ms").
  int RetryAfterMs = 100;
  /// Include the schedule times vector in ok responses.
  bool EmitSchedules = true;
  /// Frame-reader hard limits.
  ProtocolLimits Limits;

  /// Reads the MODSCHED_SERVICE_* environment overrides (WORKERS,
  /// QUEUE, CLIENT_INFLIGHT, TIME_LIMIT, MAX_TIME_LIMIT, NODE_LIMIT,
  /// CACHE, RETRY_AFTER_MS, MAX_LINE, MAX_PAYLOAD_LINES). Invalid
  /// values warn on stderr and keep the defaults above.
  static ServerOptions fromEnv();
};

/// Monotonic counters mirrored by the service/* telemetry.
struct ServerStats {
  std::int64_t Connections = 0; ///< Streams served (stdio or socket).
  std::int64_t Requests = 0;    ///< SCHED frames received (incl. bad).
  std::int64_t Accepted = 0;    ///< Requests admitted to the queue.
  std::int64_t Shed = 0;        ///< Requests load-shed (retry_after).
  std::int64_t Errors = 0;      ///< Error replies (parse or payload).
  std::int64_t Completed = 0;   ///< Solve tasks finished (any status).
  std::int64_t CacheHits = 0;   ///< Completed requests served from cache.
  std::int64_t Cancelled = 0;   ///< Requests cancelled by disconnect.
};

/// The daemon. One instance per process; destruction drains.
class Server {
public:
  explicit Server(ServerOptions Options = ServerOptions::fromEnv());
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Serves one stream of frames: reads requests from \p In, writes
  /// one-line JSON responses to \p Out (interleaved across requests,
  /// serialized per line), returns after QUIT or EOF once every
  /// admitted request of this stream has completed. \p ClientId names
  /// the stream for the per-client in-flight cap. EOF with solves still
  /// in flight cancels them (mid-request disconnect).
  void serveStream(std::istream &In, std::ostream &Out,
                   const std::string &ClientId);

  /// Binds and listens on Unix-domain socket \p Path (an existing
  /// socket file is replaced). False + \p Error on failure.
  bool listenUnix(const std::string &Path, std::string *Error);

  /// Accepts and serves socket connections (one handler thread each)
  /// until requestShutdown(); then drains and joins the handlers.
  /// Requires a successful listenUnix first.
  void acceptLoop();

  /// Flags shutdown: acceptLoop stops admitting new connections and
  /// returns after the graceful drain. Safe from any thread (and from
  /// signal handlers: one relaxed atomic store).
  void requestShutdown() { Stopping.store(true, std::memory_order_relaxed); }

  /// True once requestShutdown was called.
  bool stopping() const { return Stopping.load(std::memory_order_relaxed); }

  /// Blocks until no request is queued or running.
  void drain();

  /// Snapshot of the monotonic counters.
  ServerStats stats() const;

  /// One-line JSON rendering of stats() (the STATS reply).
  std::string statsResponse() const;

  const ServerOptions &options() const { return Opts; }

private:
  struct Connection; // Per-stream response mutex + in-flight tracking.

  /// Admission verdict for one parsed request on \p Conn; either
  /// submits the solve task or writes the shed/error reply inline.
  void admit(Request Req, const std::shared_ptr<Connection> &Conn);

  /// Runs one admitted request on a pool worker.
  void runRequest(const Request &Req, lp::SolveContext &Ctx,
                  const std::shared_ptr<Connection> &Conn,
                  const CancellationToken &Cancel);

  /// Borrows / returns one persistent solve context. At most
  /// Opts.Workers borrows are outstanding (tasks only run on workers).
  std::unique_ptr<lp::SolveContext> borrowContext();
  void returnContext(std::unique_ptr<lp::SolveContext> Ctx);

  ServerOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  std::atomic<bool> Stopping{false};

  mutable std::mutex Mu; ///< Guards everything below.
  std::condition_variable Idle;
  std::vector<std::unique_ptr<lp::SolveContext>> FreeContexts;
  int InFlight = 0; ///< Queued + running solve tasks.
  std::map<std::string, int> ClientInFlight;
  ServerStats Stat;

  int ListenFd = -1;
};

} // namespace service
} // namespace modsched

#endif // MODSCHED_SERVICE_SERVER_H
