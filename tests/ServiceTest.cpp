//===- tests/ServiceTest.cpp - Scheduling service protocol/server ---------===//
//
// Coverage for the scheduling-as-a-service layer (src/service):
//
//   * Frame parsing round-trip: a well-formed SCHED frame yields the
//     header knobs and payload text it was built from.
//   * Negative / fuzz corpus: truncated frames, oversized lines and
//     payloads, bad counts, unknown verbs/keys/enum tokens, duplicate
//     and conflicting sections — every one must come back as a
//     structured Error frame with the intended fatality, and a
//     non-fatal error must leave the stream aligned for the next frame
//     (assertions are ON in every build: surviving this corpus IS the
//     hardening test).
//   * End-to-end serveStream: solves over stdin/stdout-style streams,
//     cache-served replay on resubmission, admission shedding when
//     stopping and when the queue is full, graceful drain on QUIT, and
//     a daemon that keeps serving after a mid-request disconnect.
//   * Unix-domain socket smoke: listen, accept, PING, shut down.
//
//===----------------------------------------------------------------------===//

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace modsched;
using namespace modsched::service;

namespace {

/// Extracts "key":<value> from a one-line JSON response (machine-
/// written: no spaces, keys unique at top level for those used here).
std::string field(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  std::size_t End = At;
  if (End < Line.size() && Line[End] == '"') {
    ++End;
    while (End < Line.size() && Line[End] != '"')
      ++End;
    return Line.substr(At + 1, End - At - 1);
  }
  while (End < Line.size() && Line[End] != ',' && Line[End] != '}')
    ++End;
  return Line.substr(At, End - At);
}

/// A small solvable loop on example3 (flow chain plus one recurrence),
/// rendered through textio so frames exercise the real payload path.
std::string exampleDdg() {
  MachineModel M = MachineModel::example3();
  DependenceGraph G;
  G.setName("svc");
  int Load = G.addOperation("ld", *M.findOpClass(opclasses::Load));
  int Mul = G.addOperation("mu", *M.findOpClass(opclasses::Mul));
  int Add = G.addOperation("ad", *M.findOpClass(opclasses::Add));
  int St = G.addOperation("st", *M.findOpClass(opclasses::Store));
  G.addFlowDependence(Load, Mul, 1, 0);
  G.addFlowDependence(Mul, Add, 4, 0);
  G.addFlowDependence(Add, St, 1, 0);
  G.addFlowDependence(Add, Mul, 1, 1);
  return printDdg(G, M);
}

int countLines(const std::string &Text) {
  int N = 0;
  for (char C : Text)
    if (C == '\n')
      ++N;
  return N;
}

std::string schedFrame(const std::string &Id, const std::string &Extra = "") {
  std::string Ddg = exampleDdg();
  std::string F = "SCHED id=" + Id + " machine=example3" +
                  (Extra.empty() ? "" : " " + Extra) + "\n";
  F += "DDG " + std::to_string(countLines(Ddg)) + "\n" + Ddg;
  F += "END\n";
  return F;
}

Frame parseOne(const std::string &Text,
               const ProtocolLimits &Limits = ProtocolLimits()) {
  std::istringstream In(Text);
  return readFrame(In, Limits);
}

std::vector<std::string> serve(Server &S, const std::string &Input,
                               const std::string &Client = "test") {
  std::istringstream In(Input);
  std::ostringstream Out;
  S.serveStream(In, Out, Client);
  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  std::string Line;
  while (std::getline(Split, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

ServerOptions quickOptions() {
  ServerOptions O;
  O.Workers = 1; // Deterministic completion order for the tests.
  O.DefaultTimeLimitSeconds = 20.0;
  O.MaxTimeLimitSeconds = 30.0;
  O.Cache = true;
  return O;
}

TEST(ServiceProtocol, RoundTripParsesHeaderAndPayload) {
  std::string Ddg = exampleDdg();
  Frame F = parseOne(schedFrame("req-1", "objective=minbuff dep=traditional "
                                         "time=2.5 nodes=1000 maxii=7"));
  ASSERT_EQ(F.Kind, FrameKind::Sched);
  EXPECT_EQ(F.Req.Id, "req-1");
  EXPECT_EQ(F.Req.Obj, Objective::MinBuff);
  EXPECT_EQ(F.Req.DepStyle, DependenceStyle::Traditional);
  EXPECT_DOUBLE_EQ(F.Req.TimeLimitSeconds, 2.5);
  EXPECT_EQ(F.Req.NodeLimit, 1000);
  EXPECT_EQ(F.Req.MaxIiIncrease, 7);
  EXPECT_EQ(F.Req.BuiltinMachine, "example3");
  EXPECT_EQ(F.Req.DdgText, Ddg);

  // Inline MACHINE section instead of a builtin.
  MachineModel M = MachineModel::example3();
  std::string MText = printMachine(M);
  std::string WithMachine = "SCHED id=m1\n";
  WithMachine += "MACHINE " + std::to_string(countLines(MText)) + "\n" + MText;
  WithMachine += "DDG " + std::to_string(countLines(Ddg)) + "\n" + Ddg;
  WithMachine += "END\n";
  Frame F2 = parseOne(WithMachine);
  ASSERT_EQ(F2.Kind, FrameKind::Sched);
  EXPECT_EQ(F2.Req.MachineText, MText);
}

TEST(ServiceProtocol, SingleLineVerbs) {
  EXPECT_EQ(parseOne("PING\n").Kind, FrameKind::Ping);
  EXPECT_EQ(parseOne("STATS\n").Kind, FrameKind::Stats);
  EXPECT_EQ(parseOne("QUIT\n").Kind, FrameKind::Quit);
  EXPECT_EQ(parseOne("").Kind, FrameKind::Eof);
  EXPECT_EQ(parseOne("\n\n\nPING\n").Kind, FrameKind::Ping);
}

TEST(ServiceProtocol, NegativeCorpusNeverAborts) {
  struct Case {
    const char *Name;
    std::string Text;
    bool Fatal;
  };
  const Case Corpus[] = {
      {"unknown verb", "FROB x\n", false},
      {"missing id", "SCHED machine=example3\nEND\n", false},
      {"bad id token", "SCHED id=bad!chars\nEND\n", false},
      {"unknown key", "SCHED id=a wat=1\nEND\n", false},
      {"bad objective", "SCHED id=a objective=fastest\nEND\n", false},
      {"bad dep style", "SCHED id=a dep=quantum\nEND\n", false},
      {"bad time", "SCHED id=a time=-5\nEND\n", false},
      {"bad nodes", "SCHED id=a nodes=zero\nEND\n", false},
      {"bad maxii", "SCHED id=a maxii=99999\nEND\n", false},
      {"bad builtin", "SCHED id=a machine=pdp11\nEND\n", false},
      {"bad section", "SCHED id=a machine=example3\nBOGUS 3\nEND\n", false},
      {"bad count", "SCHED id=a machine=example3\nDDG nope\nEND\n", false},
      {"count too large",
       "SCHED id=a machine=example3\nDDG 999999999\nEND\n", false},
      {"duplicate ddg",
       "SCHED id=a machine=example3\nDDG 1\nx\nDDG 1\ny\nEND\n", false},
      {"machine conflict",
       "SCHED id=a machine=example3\nMACHINE 1\nm\nDDG 1\nx\nEND\n", false},
      {"missing ddg", "SCHED id=a machine=example3\nEND\n", false},
      {"missing machine", "SCHED id=a\nDDG 1\nx\nEND\n", false},
      {"truncated payload",
       "SCHED id=a machine=example3\nDDG 5\nonly one line\n", true},
      {"truncated frame", "SCHED id=a machine=example3\nDDG 1\nx\n", true},
      {"eof mid header payload", "SCHED id=a machine=example3\nDDG 2\nx", true},
  };
  for (const Case &C : Corpus) {
    Frame F = parseOne(C.Text);
    EXPECT_EQ(F.Kind, FrameKind::Error) << C.Name;
    EXPECT_FALSE(F.Error.empty()) << C.Name;
    EXPECT_EQ(F.Fatal, C.Fatal) << C.Name << ": " << F.Error;
  }
}

TEST(ServiceProtocol, LimitsAreFatal) {
  ProtocolLimits Tight;
  Tight.MaxLineBytes = 32;
  Tight.MaxPayloadLines = 4;
  Tight.MaxPayloadBytes = 64;

  Frame Long = parseOne("SCHED id=" + std::string(100, 'a') + "\n", Tight);
  EXPECT_EQ(Long.Kind, FrameKind::Error);
  EXPECT_TRUE(Long.Fatal);

  Frame TooMany =
      parseOne("SCHED id=a machine=example3\nDDG 9\nx\nEND\n", Tight);
  EXPECT_EQ(TooMany.Kind, FrameKind::Error);
  EXPECT_FALSE(TooMany.Fatal) << "bad count resyncs via END";

  std::string Fat = "SCHED id=a machine=example3\nDDG 4\n";
  Fat += std::string(30, 'x') + "\n" + std::string(30, 'y') + "\n" +
         std::string(30, 'z') + "\n" + std::string(30, 'w') + "\nEND\n";
  Frame Oversize = parseOne(Fat, Tight);
  EXPECT_EQ(Oversize.Kind, FrameKind::Error);
  EXPECT_TRUE(Oversize.Fatal) << Oversize.Error;
}

TEST(ServiceProtocol, NonFatalErrorLeavesStreamAligned) {
  std::istringstream In("SCHED id=a objective=fastest machine=example3\n"
                        "DDG 1\njunk\nEND\n" +
                        schedFrame("good"));
  ProtocolLimits Limits;
  Frame Bad = readFrame(In, Limits);
  EXPECT_EQ(Bad.Kind, FrameKind::Error);
  EXPECT_FALSE(Bad.Fatal);
  Frame Good = readFrame(In, Limits);
  ASSERT_EQ(Good.Kind, FrameKind::Sched);
  EXPECT_EQ(Good.Req.Id, "good");
  EXPECT_EQ(readFrame(In, Limits).Kind, FrameKind::Eof);
}

TEST(ServiceServer, SolvesAndServesFromCacheOnResubmission) {
  Server S(quickOptions());
  std::vector<std::string> Lines =
      serve(S, schedFrame("r1") + schedFrame("r2") + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);

  // Responses may complete out of order in general; with one worker
  // they are ordered, but match on id anyway.
  const std::string &First = field(Lines[0], "id") == "r1" ? Lines[0]
                                                           : Lines[1];
  const std::string &Second = field(Lines[0], "id") == "r1" ? Lines[1]
                                                            : Lines[0];
  EXPECT_EQ(field(First, "status"), "ok") << First;
  EXPECT_EQ(field(Second, "status"), "ok") << Second;
  EXPECT_EQ(field(First, "cache_hit"), "false") << First;
  EXPECT_EQ(field(Second, "cache_hit"), "true")
      << "identical resubmission not served from cache: " << Second;
  EXPECT_EQ(field(First, "ii"), field(Second, "ii"));
  EXPECT_EQ(field(First, "secondary"), field(Second, "secondary"));
  EXPECT_EQ(field(First, "canonical_hash"), field(Second, "canonical_hash"));
  EXPECT_FALSE(field(Second, "canonical_hash").empty());

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Requests, 2);
  EXPECT_EQ(Stats.Completed, 2);
  EXPECT_GE(Stats.CacheHits, 1);
  EXPECT_EQ(Stats.Shed, 0);
}

TEST(ServiceServer, BadPayloadsGetStructuredErrors) {
  Server S(quickOptions());
  std::string BadDdg = "SCHED id=bad1 machine=example3\nDDG 1\n"
                       "this is not a ddg\nEND\n";
  MachineModel M = MachineModel::example3();
  std::string Ddg = exampleDdg();
  std::string BadMachine = "SCHED id=bad2\nMACHINE 1\nnot a machine\n";
  BadMachine += "DDG " + std::to_string(countLines(Ddg)) + "\n" + Ddg + "END\n";
  std::vector<std::string> Lines = serve(S, BadDdg + BadMachine + "QUIT\n");
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_EQ(field(L, "status"), "error") << L;
    EXPECT_FALSE(field(L, "error").empty()) << L;
  }
  EXPECT_EQ(S.stats().Errors, 2);
}

TEST(ServiceServer, ShedsWhenStopping) {
  Server S(quickOptions());
  S.requestShutdown();
  std::vector<std::string> Lines = serve(S, schedFrame("late"));
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(field(Lines[0], "status"), "retry_after") << Lines[0];
  EXPECT_FALSE(field(Lines[0], "retry_after_ms").empty());
  EXPECT_EQ(S.stats().Shed, 1);
  EXPECT_EQ(S.stats().Accepted, 0);
}

namespace {

/// A stream buffer whose first write blocks until Released is set: a
/// solve task writing its reply through it stays in flight, and holds
/// its queue slot, for as long as the test needs. Synchronized by
/// promises, so nothing depends on timing.
struct BlockingBuf : std::streambuf {
  std::promise<void> Entered, Released;
  bool Blocked = false;
  std::string Text;

  int_type overflow(int_type C) override {
    if (!Blocked) {
      Blocked = true;
      Entered.set_value();
      Released.get_future().wait();
    }
    if (C != traits_type::eof())
      Text.push_back(traits_type::to_char_type(C));
    return traits_type::not_eof(C);
  }
};

} // namespace

TEST(ServiceServer, ShedsWhenQueueIsFull) {
  ServerOptions O = quickOptions();
  O.QueueLimit = 1;
  // A second worker would run an admitted second request: without the
  // queue bound it completes "ok" instead of hanging behind the first.
  O.Workers = 2;
  Server S(O);

  // Client a's request takes the only queue slot and keeps it while its
  // reply is blocked in the stream.
  BlockingBuf BufA;
  std::ostream OutA(&BufA);
  std::thread ClientA([&S, &OutA] {
    std::istringstream In(schedFrame("first") + "QUIT\n");
    S.serveStream(In, OutA, "a");
  });
  BufA.Entered.get_future().wait();

  // Client b is under its own in-flight cap, so only the full queue can
  // shed its requests.
  std::vector<std::string> Lines =
      serve(S, schedFrame("b1") + schedFrame("b2") + "QUIT\n", "b");
  BufA.Released.set_value();
  ClientA.join();

  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    EXPECT_EQ(field(L, "status"), "retry_after") << L;
    EXPECT_FALSE(field(L, "retry_after_ms").empty()) << L;
  }
  EXPECT_EQ(field(BufA.Text, "status"), "ok") << BufA.Text;
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Shed, static_cast<std::int64_t>(Lines.size()));
  EXPECT_EQ(Stats.Accepted, 1);
  EXPECT_EQ(Stats.Completed, 1);
}

TEST(ServiceServer, SurvivesMidRequestDisconnect) {
  Server S(quickOptions());
  // Stream dies inside a DDG payload: fatal framing error, reply
  // written, connection torn down — and the server keeps serving.
  std::vector<std::string> Lines =
      serve(S, "SCHED id=gone machine=example3\nDDG 50\nhalf a payload\n");
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(field(Lines[0], "status"), "error") << Lines[0];

  std::vector<std::string> After = serve(S, schedFrame("alive") + "QUIT\n");
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(field(After[0], "status"), "ok") << After[0];
}

TEST(ServiceServer, PingStatsAndGracefulQuit) {
  Server S(quickOptions());
  std::vector<std::string> Lines =
      serve(S, "PING\n" + schedFrame("last") + "STATS\nQUIT\n");
  ASSERT_GE(Lines.size(), 3u);
  EXPECT_EQ(field(Lines[0], "pong"), "true") << Lines[0];
  bool SawStats = false, SawSolve = false;
  for (const std::string &L : Lines) {
    if (L.find("\"stats\":") != std::string::npos)
      SawStats = true;
    if (field(L, "id") == "last" && field(L, "status") == "ok")
      SawSolve = true;
  }
  EXPECT_TRUE(SawStats);
  EXPECT_TRUE(SawSolve) << "QUIT must still drain the admitted request";
}

TEST(ServiceServer, UnixSocketSmoke) {
  std::string Path =
      "/tmp/modsched-servicetest-" + std::to_string(::getpid()) + ".sock";
  Server S(quickOptions());
  std::string Error;
  ASSERT_TRUE(S.listenUnix(Path, &Error)) << Error;
  std::thread Acceptor([&S] { S.acceptLoop(); });

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0)
      << std::strerror(errno);

  const char Msg[] = "PING\nQUIT\n";
  ASSERT_EQ(::send(Fd, Msg, sizeof(Msg) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(Msg) - 1));
  ::shutdown(Fd, SHUT_WR);
  std::string Reply;
  char Buf[256];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Reply.append(Buf, static_cast<std::size_t>(N));
  ::close(Fd);
  EXPECT_NE(Reply.find("\"pong\":true"), std::string::npos) << Reply;

  S.requestShutdown();
  Acceptor.join();
  ::unlink(Path.c_str());
}

} // namespace
