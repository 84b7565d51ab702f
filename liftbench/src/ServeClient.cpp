//===- liftbench/src/ServeClient.cpp - Serve traffic driver ---------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "ServeClient.h"

#include "support/Json.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>

using namespace stagg;
using namespace stagg::support;

namespace liftbench {

namespace {

/// One in-flight request.
struct InFlight {
  ServeRequest Req;
  int Conn = 0;
  bool Open = false;
  int64_t DueNs = 0;
  int64_t SentNs = 0;
};

struct Connection {
  int Fd = -1;
  std::string Out;
  size_t OutPos = 0;
  std::string In;
  int Outstanding = 0;
};

bool sameShape(const Json *Shape, const std::vector<int64_t> &Want) {
  if (!Shape || !Shape->isArray())
    return false;
  // A scalar output answers "shape":[] with one cell.
  if (Shape->items().size() != Want.size())
    return false;
  for (size_t I = 0; I < Want.size(); ++I)
    if (!Shape->items()[I].isNumber() ||
        Shape->items()[I].asNumber() != static_cast<double>(Want[I]))
      return false;
  return true;
}

std::string field(const Json &Obj, const char *Key) {
  const Json *F = Obj.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}
bool flag(const Json &Obj, const char *Key) {
  const Json *F = Obj.find(Key);
  return F && F->isBool() && F->asBool();
}
int64_t integer(const Json &Obj, const char *Key) {
  const Json *F = Obj.find(Key);
  return F && F->isNumber() ? static_cast<int64_t>(F->asNumber()) : -1;
}

/// The poll loop over all connections, with the correctness checks.
class Session {
public:
  Session(const ServeMix &Mix, const ClientExpectations &Expect,
          const ClientOptions &Options, bool ExpectCachedHits, Trace *T,
          ClientReport &Report)
      : Mix(Mix), Expect(Expect), Options(Options),
        ExpectCachedHits(ExpectCachedHits), T(T), Report(Report) {}

  ~Session() {
    for (Connection &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  bool connect() {
    for (int I = 0; I < Options.Conns; ++I) {
      Connection C;
      C.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (C.Fd < 0)
        return fail("socket: " + std::string(std::strerror(errno)));
      Conns.push_back(C);
      sockaddr_in Addr{};
      Addr.sin_family = AF_INET;
      Addr.sin_port = htons(static_cast<uint16_t>(Options.Port));
      Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) != 0)
        return fail("connect: " + std::string(std::strerror(errno)));
      int One = 1;
      ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    return true;
  }

  /// Queues \p R on connection \p Conn; the send time is now.
  void submit(ServeRequest R, int Conn, int64_t DueNs, bool Open) {
    InFlight F;
    F.Conn = Conn;
    F.Open = Open;
    F.DueNs = DueNs;
    Connection &C = Conns[static_cast<size_t>(Conn)];
    C.Out += R.Frame;
    C.Out += '\n';
    ++C.Outstanding;
    F.Req = std::move(R);
    F.SentNs = Trace::nowNs();
    int64_t Id = F.Req.Id;
    Pending.emplace(Id, std::move(F));
    flush(C);
  }

  /// Waits up to \p TimeoutNs for socket activity and handles it.
  bool pump(int64_t TimeoutNs) {
    std::vector<pollfd> Fds;
    for (Connection &C : Conns)
      Fds.push_back(pollfd{C.Fd,
                           static_cast<short>(
                               POLLIN | (C.OutPos < C.Out.size() ? POLLOUT : 0)),
                           0});
    TimeoutNs = std::max<int64_t>(TimeoutNs, 0);
    timespec Ts{static_cast<time_t>(TimeoutNs / 1000000000),
                static_cast<long>(TimeoutNs % 1000000000)};
    int N = ::ppoll(Fds.data(), Fds.size(), &Ts, nullptr);
    if (N < 0)
      return errno == EINTR || fail("poll: " + std::string(std::strerror(errno)));
    for (size_t I = 0; I < Fds.size(); ++I) {
      if (Fds[I].revents & POLLOUT)
        flush(Conns[I]);
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        if (!readFrom(static_cast<int>(I)))
          return false;
    }
    return Report.Error.empty();
  }

  size_t outstanding() const { return Pending.size(); }
  int outstandingOn(int Conn) const {
    return Conns[static_cast<size_t>(Conn)].Outstanding;
  }
  int conns() const { return static_cast<int>(Conns.size()); }

  /// Waits for every in-flight request; one that gets no answer within the
  /// drain timeout voids the run.
  void drain() {
    int64_t Deadline =
        Trace::nowNs() + static_cast<int64_t>(Options.DrainTimeoutSeconds * 1e9);
    while (!Pending.empty() && Report.Error.empty() &&
           Trace::nowNs() < Deadline)
      pump(Deadline - Trace::nowNs());
    if (!Pending.empty())
      fail(std::to_string(Pending.size()) + " requests got no response within " +
           std::to_string(Options.DrainTimeoutSeconds) + " s");
  }

  /// Sends a v2 stats probe on the first connection and keeps the event.
  void stats() {
    Connection &C = Conns[0];
    C.Out += "{\"v\":2,\"stats\":true}\n";
    flush(C);
    int64_t Deadline = Trace::nowNs() + 10'000'000'000LL;
    while (Report.StatsJson.empty() && Report.Error.empty() &&
           Trace::nowNs() < Deadline)
      pump(Deadline - Trace::nowNs());
    if (Report.StatsJson.empty() && Report.Error.empty())
      fail("no stats event");
  }

  bool fail(const std::string &Message) {
    if (Report.Error.empty())
      Report.Error = Message;
    return false;
  }

private:
  void flush(Connection &C) {
    while (C.OutPos < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (N < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          fail("send: " + std::string(std::strerror(errno)));
        return;
      }
      C.OutPos += static_cast<size_t>(N);
    }
    C.Out.clear();
    C.OutPos = 0;
  }

  bool readFrom(int Index) {
    Connection &C = Conns[static_cast<size_t>(Index)];
    char Buf[65536];
    for (;;) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N > 0) {
        C.In.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N == 0)
        return fail("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      if (errno != EINTR)
        return fail("recv: " + std::string(std::strerror(errno)));
    }
    // Every response read in this call arrived by now.
    int64_t Now = Trace::nowNs();
    size_t Start = 0;
    for (size_t Nl; (Nl = C.In.find('\n', Start)) != std::string::npos;
         Start = Nl + 1)
      onLine(C.In.substr(Start, Nl - Start), Now);
    C.In.erase(0, Start);
    return Report.Error.empty();
  }

  void onLine(const std::string &Line, int64_t Now) {
    JsonParseResult P = parseJson(Line);
    if (!P.ok()) {
      fail("unparsable server line: " + Line.substr(0, 200));
      return;
    }
    const Json &Ev = P.Value;
    std::string Event = field(Ev, "event");
    if (Event == "done" || Event == "progress")
      return;
    if (Event == "stats") {
      Report.StatsJson = Line;
      return;
    }
    const Json *IdField = Ev.find("id");
    if (!IdField || !IdField->isNumber()) {
      fail("server line without a request id: " + Line.substr(0, 200));
      return;
    }
    auto It = Pending.find(static_cast<int64_t>(IdField->asNumber()));
    if (It == Pending.end()) {
      fail("response for an unknown id: " + Line.substr(0, 200));
      return;
    }
    InFlight F = std::move(It->second);
    Pending.erase(It);
    --Conns[static_cast<size_t>(F.Conn)].Outstanding;

    Completed Done;
    Done.Kind = F.Req.Kind;
    Done.Open = F.Open;
    Done.LatencyMs = (Now - (F.Open ? F.DueNs : F.SentNs)) / 1e6;
    Done.LateMs = F.Open ? (F.SentNs - F.DueNs) / 1e6 : 0;
    Done.RoundTripMs = (Now - F.SentNs) / 1e6;

    std::string Why;
    if (Event == "response") {
      const Json *R = Ev.find("response");
      Why = R ? checkLiftResponse(F, *R, Done) : "response without a body";
    } else if (Event == "result") {
      Why = checkResult(F, Ev);
    } else {
      Why = "unexpected event: " + Line.substr(0, 200);
    }
    if (!Why.empty()) {
      Done.Failed = true;
      mismatch(F, Why);
    }
    if (T) {
      int Root = static_cast<int>(T->size());
      T->add(F.Open ? "request.open" : "request.closed",
             static_cast<uint64_t>(F.Req.Id), -1,
             F.Open ? F.DueNs : F.SentNs, Now);
      int Wire = static_cast<int>(T->size());
      T->add(kindName(F.Req.Kind), static_cast<uint64_t>(F.Req.Id), Root,
             F.SentNs, Now);
      if (Done.ServerLiftMs >= 0)
        T->add("server.lift", static_cast<uint64_t>(F.Req.Id), Wire,
               Now - static_cast<int64_t>(Done.ServerLiftMs * 1e6), Now);
    }
    Report.Done.push_back(Done);
  }

  std::string checkLiftResponse(const InFlight &F, const Json &R,
                                Completed &Done) {
    if (field(R, "status") != "ok")
      return "status " + field(R, "status") + ": " + field(R, "error");
    bool Cached = flag(R, "cached");
    std::string Expr = field(R, "expr");
    if (!Cached)
      if (const Json *Timings = R.find("timings"))
        if (const Json *Total = Timings->find("total_s"))
          Done.ServerLiftMs = Total->asNumber() * 1e3;
    if (F.Req.Kind == RequestKind::Hit) {
      auto E = Expect.Registry.find(F.Req.Kernel);
      if (E == Expect.Registry.end())
        return "no expectation for " + F.Req.Kernel;
      if (ExpectCachedHits && !Cached)
        return "registry lift was not answered from the result cache";
      return checkLiftFields(E->second, flag(R, "solved"),
                             static_cast<int>(integer(R, "attempts")),
                             integer(R, "expansions"), Expr);
    }
    auto E = Expect.InlineExprs.find(F.Req.Kernel);
    if (E == Expect.InlineExprs.end())
      return "no inline expectation for " + F.Req.Kernel;
    if (Cached)
      return "renamed inline kernel was answered from the result cache";
    if (!flag(R, "verified"))
      return "inline lift not verified";
    std::string Undone = undoRenaming(Expr, F.Req.Prefix);
    if (Undone != E->second)
      return "inline expr '" + Undone + "' != '" + E->second + "'";
    return "";
  }

  std::string checkResult(const InFlight &F, const Json &Ev) {
    if (field(Ev, "status") != "ok")
      return "execute status " + field(Ev, "status") + ": " +
             field(Ev, "error");
    const ExecPayload &P = Mix.Payloads[static_cast<size_t>(F.Req.ExecIndex)];
    if (!sameShape(Ev.find("shape"), P.OutShape))
      return "execute output shape differs from the C kernel's";
    const Json *Data = Ev.find("data");
    if (!Data || !Data->isArray() || Data->items().size() != P.Expected.size())
      return "execute output has the wrong cell count";
    for (size_t I = 0; I < P.Expected.size(); ++I)
      if (!Data->items()[I].isNumber() ||
          Data->items()[I].asNumber() != P.Expected[I]) {
        std::ostringstream S;
        S << "execute cell " << I << " is "
          << (Data->items()[I].isNumber() ? Data->items()[I].asNumber() : NAN)
          << ", the cfront interpreter gives " << P.Expected[I];
        return S.str();
      }
    return "";
  }

  void mismatch(const InFlight &F, const std::string &Why) {
    Report.Mismatches.push_back("request " + std::to_string(F.Req.Id) + " (" +
                                kindName(F.Req.Kind) + " " + F.Req.Kernel +
                                "): " + Why);
  }

  const ServeMix &Mix;
  const ClientExpectations &Expect;
  const ClientOptions &Options;
  bool ExpectCachedHits;
  Trace *T;
  ClientReport &Report;
  std::vector<Connection> Conns;
  std::unordered_map<int64_t, InFlight> Pending;
};

/// Sends \p Queue closed-loop, one outstanding request per connection.
/// Gives up after \p TimeoutSeconds; drain() then fails what is left.
void closedLoop(Session &S, std::deque<ServeRequest> Queue,
                double TimeoutSeconds) {
  int64_t Deadline =
      Trace::nowNs() + static_cast<int64_t>(TimeoutSeconds * 1e9);
  while ((!Queue.empty() || S.outstanding()) && S.pump(0) &&
         Trace::nowNs() < Deadline) {
    for (int C = 0; C < S.conns() && !Queue.empty(); ++C)
      if (S.outstandingOn(C) == 0) {
        S.submit(std::move(Queue.front()), C, Trace::nowNs(), false);
        Queue.pop_front();
      }
    if (S.outstanding())
      S.pump(1'000'000'000);
  }
}

} // namespace

ClientReport runServeTraffic(const ServeMix &Mix,
                             const ClientExpectations &Expect,
                             const ClientOptions &Options, Trace *T) {
  ClientReport Report;
  Session S(Mix, Expect, Options, /*ExpectCachedHits=*/true, T, Report);
  if (!S.connect())
    return Report;

  // Open loop: Poisson arrivals at OfferedRate, taken from the block
  // stream in order and spread round-robin over the connections. Frames are
  // built before the clock starts.
  const double OpenSeconds = Options.Seconds * OpenShare;
  std::vector<double> Gaps =
      poissonGaps(static_cast<size_t>(OfferedRate * OpenSeconds * 2 + 64),
                  OfferedRate, Mix.Seed);
  std::vector<int64_t> Due;
  for (double At = Gaps[0]; Due.size() + 1 < Gaps.size() && At < OpenSeconds;
       At += Gaps[Due.size()])
    Due.push_back(static_cast<int64_t>(At * 1e9));
  uint64_t Block = 0;
  std::vector<ServeRequest> Open;
  while (Open.size() < Due.size())
    for (ServeRequest &R : Mix.block(Block++))
      Open.push_back(std::move(R));
  Open.resize(Due.size());
  int64_t Start = Trace::nowNs() + 20'000'000;
  for (size_t Next = 0; Next < Open.size() && Report.Error.empty();) {
    int64_t Now = Trace::nowNs();
    for (; Next < Open.size() && Start + Due[Next] <= Now; ++Next)
      S.submit(std::move(Open[Next]), static_cast<int>(Next % S.conns()),
               Start + Due[Next], true);
    if (Next < Open.size())
      S.pump(Start + Due[Next] - Trace::nowNs());
  }
  S.drain();

  // Closed loop: whole blocks, one outstanding request per connection; a
  // block's time runs from its first send to its last response.
  const double ClosedSeconds = Options.Seconds - OpenSeconds;
  int64_t ClosedStart = Trace::nowNs();
  do {
    std::vector<ServeRequest> B = Mix.block(Block++);
    int64_t T0 = Trace::nowNs();
    closedLoop(S,
               std::deque<ServeRequest>(std::make_move_iterator(B.begin()),
                                        std::make_move_iterator(B.end())),
               Options.DrainTimeoutSeconds);
    Report.BlockSeconds.push_back((Trace::nowNs() - T0) / 1e9);
  } while (Report.Error.empty() &&
           (Trace::nowNs() - ClosedStart) / 1e9 < ClosedSeconds);
  S.drain();
  if (Report.Error.empty())
    S.stats();
  return Report;
}

ClientReport runWarmup(const std::vector<ServeRequest> &Requests,
                       const ServeMix &Mix, const ClientExpectations &Expect,
                       const ClientOptions &Options) {
  ClientReport Report;
  Session S(Mix, Expect, Options, /*ExpectCachedHits=*/false, nullptr,
            Report);
  if (!S.connect())
    return Report;
  closedLoop(S, std::deque<ServeRequest>(Requests.begin(), Requests.end()),
             Options.DrainTimeoutSeconds);
  S.drain();
  return Report;
}

} // namespace liftbench
