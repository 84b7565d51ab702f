//===- liftbench/src/ServeClient.h - Serve traffic driver -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-threaded client that drives `stagg serve --listen` over a few
/// TCP connections in two phases: an open loop of Poisson arrivals (each
/// request timed from its scheduled send time), then a closed loop with one
/// outstanding request per connection. Every response is checked against
/// its expectation as it arrives.
///
//===----------------------------------------------------------------------===//

#ifndef LIFTBENCH_SERVECLIENT_H
#define LIFTBENCH_SERVECLIENT_H

#include "Pipeline.h"
#include "Workload.h"

#include <map>
#include <string>
#include <vector>

namespace liftbench {

/// The serving session's shape: an open loop at OfferedRate requests/s for
/// OpenShare of the session, then a closed loop for the rest. OfferedRate is
/// a quarter of the closed loop's saturation rate as measured on a 4-vCPU
/// Xeon virtual machine (serve.sat_rps 3409-4163, median 3503), so the open
/// loop stays below capacity even when the host runs at half speed.
constexpr double OfferedRate = 875;
constexpr double OpenShare = 0.6;

struct ClientOptions {
  int Port = 0;
  int Conns = 4;
  double Seconds = 15; ///< Both phases together.
  double DrainTimeoutSeconds = 10;
};

/// What the client expects back for each request kind.
struct ClientExpectations {
  std::map<std::string, Expectation> Registry;    ///< hit lifts
  std::map<std::string, std::string> InlineExprs; ///< cold lifts
};

/// One completed (or abandoned) request.
struct Completed {
  RequestKind Kind = RequestKind::Hit;
  bool Open = false;       ///< Sent by the open loop.
  bool Failed = false;     ///< Error or refused response.
  double LatencyMs = 0;    ///< Open: from scheduled send; closed: from send.
  double LateMs = 0;       ///< Open: actual minus scheduled send time.
  double RoundTripMs = 0;  ///< From the actual send.
  double ServerLiftMs = -1; ///< timings.total_s of a fresh lift, else -1.
};

struct ClientReport {
  std::vector<Completed> Done;
  std::vector<double> BlockSeconds; ///< Closed loop: wall time per block.
  std::vector<std::string> Mismatches;
  /// The server's v2 stats event, raw.
  std::string StatsJson;
  std::string Error; ///< Transport failure; the run is void.
};

/// Runs the open and then the closed loop of \p Mix.
/// Spans (when \p T is non-null) record each request from its due time
/// (open loop) or send time (closed loop) to its response, with a child
/// named after the request kind from the actual send, and for a fresh lift
/// a grandchild `server.lift` as long as the server-reported lift time,
/// ending at the response.
ClientReport runServeTraffic(const ServeMix &Mix,
                             const ClientExpectations &Expect,
                             const ClientOptions &Options, Trace *T);

/// Sends \p Requests closed-loop (no timing) and checks them; used to warm
/// a server's result-cache journal before the timed instance replays it.
ClientReport runWarmup(const std::vector<ServeRequest> &Requests,
                       const ServeMix &Mix, const ClientExpectations &Expect,
                       const ClientOptions &Options);

} // namespace liftbench

#endif // LIFTBENCH_SERVECLIENT_H
