// switchd: an in-process daemon::Switchd on loopback with the base design.
// The packet side is a closed loop over 4 UDP ports with a fixed window of
// outstanding datagrams per port; the control side sends batched table
// upserts (Client::ApplyBatch) open-loop at a fixed rate on its own
// connection. Control writes share the daemon's one loop thread with
// packets, so the wire/daemon/rpc layers dominate. Busy threads: the daemon
// loop, the packet loop and the control generator, at most 3.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <unordered_map>

#include "bench/common.h"
#include "controller/runtime_api.h"
#include "daemon/backends.h"
#include "daemon/switchd.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "scenario.h"
#include "wire/socket.h"

namespace perfbench {
namespace {

using ipsa::Status;
using ipsa::net::Packet;
namespace designs = ipsa::controller::designs;

constexpr uint32_t kPorts = 4;
constexpr uint32_t kWindow = 8;  // outstanding datagrams per port
constexpr size_t kFramesPerPort = 16;
constexpr size_t kCtlOps = 32;               // upserts per control batch
constexpr size_t kCtlBatches = 32;           // distinct pre-built batches
constexpr int64_t kCtlPeriodNs = 2'000'000;  // 500 batches/s
constexpr int64_t kCtlSpinNs = 500'000;      // spin before each due time
constexpr int kDrainTimeoutMs = 500;  // wait for stragglers at slice end
// Consecutive samples per block of the tail percentiles (BlockedPercentile):
// the fewest that support p99 and p90 by the percentile rule.
constexpr size_t kRttBlock = 1000;
constexpr size_t kCtlBlock = 100;

struct Acc {
  uint64_t sent = 0, received = 0;
  double loop_ns = 0;
  std::vector<double> rtt_us;
  std::vector<double> ctl_us;
  double late_us_sum = 0, late_us_max = 0;
};

// What the control thread measured in one slice.
struct CtlRecord {
  std::vector<double> ctl_us;
  double late_us_sum = 0, late_us_max = 0;
  uint64_t failed = 0;
};

struct Frame {
  std::vector<uint8_t> in;    // datagram sent on its port
  std::vector<uint8_t> want;  // expected packet-out on the same port
};

struct InFlight {
  int64_t sent_ns = 0;
  uint32_t port = 0;
  uint32_t frame = 0;
};

void PutSeq(std::vector<uint8_t>& b, uint64_t seq) {
  std::memcpy(b.data() + b.size() - 8, &seq, 8);
}
uint64_t GetSeq(std::span<const uint8_t> b) {
  uint64_t seq = 0;
  if (b.size() >= 8) std::memcpy(&seq, b.data() + b.size() - 8, 8);
  return seq;
}

double PerSample(double sum, size_t n) {
  return n ? sum / static_cast<double>(n) : 0.0;
}

class SwitchdScenario : public Scenario {
 public:
  const char* name() const override { return "switchd"; }
  ~SwitchdScenario() override { Finish(); }

  Status Setup(const Inputs&) override {
    opts_.arch = ipsa::daemon::ArchKind::kIpsa;
    opts_.udp_ports = kPorts;
    daemon_ = std::make_unique<ipsa::daemon::Switchd>(opts_);
    IPSA_RETURN_IF_ERROR(daemon_->Start());

    ipsa::rpc::ClientOptions copts;
    copts.port = daemon_->control_port();
    copts.client_name = "perfbench-setup";
    setup_client_ = std::make_unique<ipsa::rpc::Client>(copts);
    IPSA_RETURN_IF_ERROR(
        setup_client_->Install(ipsa::rpc::InstallKind::kBaseP4,
                               designs::BaseP4())
            .status());
    IPSA_ASSIGN_OR_RETURN(api_, setup_client_->FetchApi());
    populate_.clear();
    ipsa::controller::AddEntryFn collect =
        [this](const std::string& t, const ipsa::table::Entry& e) {
          populate_.push_back({ipsa::rpc::TableOpKind::kModify, t, e});
          return ipsa::OkStatus();
        };
    ipsa::controller::BaselineConfig config;
    IPSA_RETURN_IF_ERROR(
        ipsa::controller::PopulateBaseline(api_, collect, config));
    return setup_client_->ApplyBatch(populate_).status();
  }

  Status Prepare(const Inputs& in) override {
    // The same design in-process: the reference (interpreter) and the probe
    // backend the traced slices time Dispatcher::Handle and InjectAndDrain
    // on.
    IPSA_ASSIGN_OR_RETURN(
        auto ref, ipsa::bench::MakeRp4Setup(ipsa::bench::UseCase::kBase));
    ref.device->SetExecMode(ipsa::arch::ExecMode::kInterpret);
    ipsa::telemetry::TelemetryConfig tcfg;
    tcfg.enabled = opts_.telemetry;
    probe_backend_.ConfigureTelemetry(tcfg);
    IPSA_RETURN_IF_ERROR(
        probe_backend_.Install(ipsa::rpc::InstallKind::kBaseP4,
                               designs::BaseP4())
            .status());
    for (const auto& op : populate_) {
      IPSA_RETURN_IF_ERROR(probe_backend_.ApplyTableOp(op));
    }

    IPSA_RETURN_IF_ERROR(BuildFrames(in.seed, *ref.device));
    BuildControlBatches(api_);
    IPSA_RETURN_IF_ERROR(HandshakeProbe());
    IPSA_RETURN_IF_ERROR(OpenPacketSockets());

    ipsa::rpc::ClientOptions copts;
    copts.port = daemon_->control_port();
    copts.client_name = "perfbench-control";
    ctl_client_ = std::make_unique<ipsa::rpc::Client>(copts);
    return ctl_client_->Connect();
  }

  void RunSlice(int64_t budget_ns, double speed, Tracer* tracer) override {
    Acc& acc = acc_[tracer != nullptr];
    speed_ = speed;
    const int64_t start = NowNs();
    const int64_t end = start + budget_ns;
    // The control thread fills its own record; it is merged after the join.
    CtlRecord rec;
    std::thread ctl([this, &rec, start, end] { ControlLoop(rec, start, end); });
    PacketLoop(acc, end, tracer);
    ctl.join();
    acc.ctl_us.insert(acc.ctl_us.end(), rec.ctl_us.begin(), rec.ctl_us.end());
    acc.late_us_sum += rec.late_us_sum;
    acc.late_us_max = std::max(acc.late_us_max, rec.late_us_max);
    for (uint64_t i = 0; i < rec.ctl_us.size(); ++i) {
      outcome.Check(i >= rec.failed,
                    "switchd: control batch not fully applied");
    }
    if (tracer) Probes(*tracer);
  }

  void Finish() override {
    if (daemon_ && daemon_->running()) {
      daemon_->Stop();
      counters_ = daemon_->counters();
    }
  }

  void Report(bool traced, MetricMap& out) const override {
    const Acc& a = acc_[traced];
    out["switchd_pps"] = {
        a.loop_ns > 0 ? static_cast<double>(a.received) * 1e9 / a.loop_ns : 0,
        "pkt/s"};
    out["rtt_us_p50"] = {Percentile(a.rtt_us, 50), "us"};
    out["rtt_us_p99"] = {BlockedPercentile(a.rtt_us, 99, kRttBlock), "us"};
    out["ctl_us_p50"] = {Percentile(a.ctl_us, 50), "us"};
  }

  void Describe(std::vector<PercentileUse>& percentiles,
                std::vector<std::string>& notes) const override {
    const Acc& a = acc_[0];
    percentiles.push_back({"rtt_us_p50", 50, a.rtt_us.size()});
    // The tails are medians over blocks: the run needs enough blocks for
    // a median, each block enough samples for its percentile.
    percentiles.push_back({"rtt_us_p99", 50, a.rtt_us.size() / kRttBlock});
    percentiles.push_back({"ctl_us_p50", 50, a.ctl_us.size()});
    // The control tail follows the host's busy phases: in five-seed sets on
    // a shared host, one run in five had it 60% above the others, each time
    // with the generator itself waking about 450 us late on average. So it
    // is printed, not reported as a metric.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "info ctl_us_p90 %.3f us",
                  BlockedPercentile(a.ctl_us, 90, kCtlBlock));
    notes.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "switchd control generator: %zu batches, late by %.1f us "
                  "mean, %.1f us max",
                  a.ctl_us.size(), PerSample(a.late_us_sum, a.ctl_us.size()),
                  a.late_us_max);
    notes.push_back(buf);
    std::snprintf(buf, sizeof(buf), "switchd packets: %llu sent, %llu received",
                  static_cast<unsigned long long>(a.sent),
                  static_cast<unsigned long long>(a.received));
    notes.push_back(buf);
  }

  void ReportLayers(const Tracer& tracer, std::vector<LedgerLine>& lines,
                    std::vector<Explained>& explained) const override {
    auto tot = TotalTimeNs(tracer.spans());
    auto mean_ns = [&](const char* span) {
      auto it = tot.find(span);
      return it == tot.end() ? 0.0
                             : PerSample(it->second.total_ns, it->second.calls);
    };
    const Acc& t = acc_[1];
    const double dispatch_us = mean_ns("rpc.Dispatcher.Handle") / 1e3;
    const double inject_ns = mean_ns("daemon.InjectAndDrain");
    const double syscall_us = PerSample(syscall_ns_, t.received) / 1e3;
    double rtt_sum = 0;
    for (double v : t.rtt_us) rtt_sum += v;
    const double rtt_mean = PerSample(rtt_sum, t.rtt_us.size());
    auto count = [](uint64_t n) { return static_cast<double>(n); };
    lines.push_back({"rpc.dispatch_us", dispatch_us, "us", "ctl_us_p50"});
    lines.push_back(
        {"daemon.inject_drain_ns_per_pkt", inject_ns, "ns", "switchd_pps"});
    lines.push_back({"wire.client_syscall_us", syscall_us, "us", "rtt_us_p50"});
    lines.push_back({"daemon.loop_residual_us",
                     rtt_mean - inject_ns / 1e3 - syscall_us, "us",
                     "rtt_us_p50"});
    lines.push_back(
        {"daemon.udp_rx", count(counters_.udp_rx), "count", "none"});
    lines.push_back(
        {"daemon.udp_tx", count(counters_.udp_tx), "count", "none"});
    lines.push_back(
        {"daemon.no_peer", count(counters_.udp_no_peer), "count", "none"});
    lines.push_back(
        {"daemon.unmapped", count(counters_.udp_unmapped), "count", "none"});
    // Per datagram, the daemon's service time is 1/pps; with kPorts x
    // kWindow datagrams in flight, the rest of an RTT is queueing.
    explained.push_back({"switchd_pps (daemon service time per datagram)",
                         PerSample(t.loop_ns, t.received), inject_ns});
    explained.push_back({"rtt_us (mean; the rest waits behind the window)",
                         rtt_mean * 1e3, inject_ns + syscall_us * 1e3});
  }

 private:
  Status BuildFrames(uint64_t seed, ipsa::ipbm::IpbmSwitch& ref) {
    ipsa::net::WorkloadConfig cfg =
        ipsa::bench::WorkloadFor(ipsa::bench::UseCase::kBase);
    cfg.seed = seed ^ 0x5D17C4ull;
    cfg.payload_size = 18;
    ipsa::net::Workload wl(cfg);
    frames_.assign(kPorts, {});
    for (int tries = 0; tries < 20000; ++tries) {
      Packet p = wl.NextPacket();
      Packet probe = p;
      auto r = ref.Process(probe, 0);
      if (!r.ok() || r->dropped || r->egress_port >= kPorts) continue;
      const uint32_t port = r->egress_port;
      if (frames_[port].size() >= kFramesPerPort) continue;
      // Re-run on its own ingress port, twice with different tails: the
      // sequence number rides in the last payload bytes, which the pipeline
      // must pass through untouched.
      Frame f;
      f.in.assign(p.bytes().begin(), p.bytes().end());
      std::vector<uint8_t> alt = f.in;
      PutSeq(alt, 0x0123456789ABCDEFull);
      Packet a(f.in), b(alt);
      auto ra = ref.Process(a, port);
      auto rb = ref.Process(b, port);
      if (!ra.ok() || !rb.ok() || ra->dropped || ra->egress_port != port ||
          rb->egress_port != port) {
        continue;
      }
      f.want.assign(a.bytes().begin(), a.bytes().end());
      std::vector<uint8_t> want_alt = f.want;
      PutSeq(want_alt, 0x0123456789ABCDEFull);
      if (!std::equal(want_alt.begin(), want_alt.end(), b.bytes().begin(),
                      b.bytes().end())) {
        continue;
      }
      frames_[port].push_back(std::move(f));
      bool full = true;
      for (const auto& v : frames_) full &= v.size() >= kFramesPerPort;
      if (full) return ipsa::OkStatus();
    }
    return ipsa::InternalError(
        "switchd: could not draw frames for every UDP port");
  }

  void BuildControlBatches(const ipsa::compiler::ApiSpec& api) {
    // Host routes outside the traffic's 10.0.0.0/24 pool, so the writes
    // never change what the packet loop expects.
    ipsa::controller::EntryBuilder builder(api);
    uint32_t i = 0;
    for (size_t b = 0; b < kCtlBatches; ++b) {
      std::vector<ipsa::rpc::TableOp> ops;
      for (size_t k = 0; k < kCtlOps; ++k, ++i) {
        auto e = builder.Build(
            "ipv4_host", "set_nexthop",
            {ipsa::controller::KeyValue(
                ipsa::controller::Ipv4Bits(0x0A010000 + (i % 1024)))},
            {ipsa::controller::Bits(16, 100 + (i % 8))});
        if (e.ok()) {
          ops.push_back({ipsa::rpc::TableOpKind::kModify, "ipv4_host", *e});
        }
      }
      ipsa::wire::Writer w;
      ipsa::rpc::TableBatchRequest req{ops};
      req.Encode(w);
      ctl_frames_.push_back(
          {static_cast<uint16_t>(ipsa::rpc::MsgType::kTableBatchReq),
           static_cast<uint32_t>(b + 2), w.Take()});
      ctl_batches_.push_back(std::move(ops));
    }
  }

  Status HandshakeProbe() {
    ipsa::wire::Writer w;
    ipsa::rpc::HelloRequest hello;
    hello.client = "perfbench-probe";
    hello.Encode(w);
    probe_dispatcher_.Handle(
        {static_cast<uint16_t>(ipsa::rpc::MsgType::kHelloReq), 1, w.Take()});
    if (!probe_dispatcher_.handshaken()) {
      return ipsa::InternalError("probe handshake failed");
    }
    return ipsa::OkStatus();
  }

  Status OpenPacketSockets() {
    for (uint32_t p = 0; p < kPorts; ++p) {
      IPSA_ASSIGN_OR_RETURN(ipsa::wire::Socket s,
                            ipsa::wire::UdpBind("127.0.0.1", 0));
      IPSA_RETURN_IF_ERROR(ipsa::wire::SetNonBlocking(s.fd(), true));
      sockaddr_in to{};
      to.sin_family = AF_INET;
      to.sin_port = htons(daemon_->udp_port(p));
      to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      // A zero-length datagram registers this socket as the port's peer.
      if (::sendto(s.fd(), "", 0, 0, reinterpret_cast<const sockaddr*>(&to),
                   sizeof(to)) != 0) {
        return ipsa::InternalError("switchd: peer registration failed");
      }
      socks_.push_back(std::move(s));
      addrs_.push_back(to);
    }
    return ipsa::OkStatus();
  }

  void Send(uint32_t port, Acc& acc, bool traced) {
    const uint32_t fi = static_cast<uint32_t>(next_frame_++ % kFramesPerPort);
    send_buf_ = frames_[port][fi].in;
    const uint64_t seq = ++seq_;
    PutSeq(send_buf_, seq);
    const int64_t t0 = NowNs();
    ssize_t n = ::sendto(socks_[port].fd(), send_buf_.data(), send_buf_.size(),
                         0, reinterpret_cast<const sockaddr*>(&addrs_[port]),
                         sizeof(addrs_[port]));
    if (traced) syscall_ns_ += static_cast<double>(NowNs() - t0);
    if (n != static_cast<ssize_t>(send_buf_.size())) {
      outcome.Check(false, "switchd: sendto failed");
      return;
    }
    inflight_[seq] = {t0, port, fi};
    ++acc.sent;
  }

  // Receives every datagram waiting on `port`, checks it, and sends the
  // next one on its port while the slice lasts.
  void Receive(uint32_t port, Acc& acc, bool traced, int64_t end) {
    for (;;) {
      const int64_t t0 = NowNs();
      ssize_t n =
          ::recv(socks_[port].fd(), recv_buf_.data(), recv_buf_.size(), 0);
      const int64_t t1 = NowNs();
      if (n < 0) break;  // EAGAIN: drained
      if (traced) syscall_ns_ += static_cast<double>(t1 - t0);
      std::span<const uint8_t> bytes(recv_buf_.data(), static_cast<size_t>(n));
      auto it = inflight_.find(GetSeq(bytes));
      if (it == inflight_.end()) {
        outcome.Check(false, "switchd: unexpected datagram");
        continue;
      }
      InFlight f = it->second;
      inflight_.erase(it);
      want_buf_ = frames_[f.port][f.frame].want;
      PutSeq(want_buf_, GetSeq(bytes));
      outcome.Check(f.port == port &&
                        std::equal(want_buf_.begin(), want_buf_.end(),
                                   bytes.begin(), bytes.end()),
                    "switchd: datagram returned on the wrong port or with "
                    "wrong bytes");
      acc.rtt_us.push_back(static_cast<double>(t1 - f.sent_ns) / 1e3 *
                           speed_);
      ++acc.received;
      if (t1 < end) Send(f.port, acc, traced);
    }
  }

  void PacketLoop(Acc& acc, int64_t end, Tracer* tracer) {
    const bool traced = tracer != nullptr;
    ScopedSpan span(tracer, "switchd.packet_loop", 0);
    const int64_t t0 = NowNs();
    for (uint32_t p = 0; p < kPorts; ++p) {
      for (uint32_t w = 0; w < kWindow; ++w) Send(p, acc, traced);
    }
    pollfd fds[kPorts];
    for (uint32_t p = 0; p < kPorts; ++p) fds[p] = {socks_[p].fd(), POLLIN, 0};
    // Closed loop until the slice ends, then collect what is still in flight.
    int64_t drain_deadline = 0;
    while (!inflight_.empty()) {
      const int64_t now = NowNs();
      if (now >= end && drain_deadline == 0) {
        drain_deadline = now + int64_t{kDrainTimeoutMs} * 1'000'000;
      }
      if (drain_deadline && now >= drain_deadline) break;
      if (::poll(fds, kPorts, 50) <= 0) continue;
      for (uint32_t p = 0; p < kPorts; ++p) {
        if (fds[p].revents & POLLIN) Receive(p, acc, traced, end);
      }
    }
    acc.loop_ns += static_cast<double>(NowNs() - t0) * speed_;
    // Sent but never received: each one is a failed operation.
    for (size_t i = 0; i < inflight_.size(); ++i) {
      outcome.Check(false, "switchd: datagram lost");
    }
    inflight_.clear();
  }

  void ControlLoop(CtlRecord& rec, int64_t start, int64_t end) {
    int64_t prev_done = 0;
    for (int64_t k = 0;; ++k) {
      const int64_t due = start + k * kCtlPeriodNs;
      if (due >= end) break;
      // Sleep to just short of the due time, then spin: a sleeping thread
      // wakes hundreds of microseconds late on a busy host, which would
      // charge the harness's own wake-up to every batch.
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due - kCtlSpinNs)));
      while (NowNs() < due) {
      }
      const int64_t t_send = NowNs();
      const auto& ops = ctl_batches_[ctl_next_++ % kCtlBatches];
      auto resp = ctl_client_->ApplyBatch(ops);
      const int64_t t_done = NowNs();
      const double late_us = static_cast<double>(t_send - due) / 1e3;
      rec.late_us_sum += late_us;
      rec.late_us_max = std::max(rec.late_us_max, late_us);
      // A batch held up by the previous call (the daemon had not answered
      // by its due time) is timed from its due time, so a stall charges
      // every batch queued behind it. Otherwise the daemon was free at the
      // due time and any delay before the send is the generator's own
      // wake-up: the batch is timed from its send, and the delay reported
      // as lateness.
      const int64_t from = prev_done > due ? due : t_send;
      rec.ctl_us.push_back(static_cast<double>(t_done - from) / 1e3 * speed_);
      prev_done = t_done;
      if (!resp.ok() || resp->applied != ops.size()) ++rec.failed;
    }
  }

  // Traced-slice probes: the same upsert frames through an in-process
  // dispatcher, and the same frames through InjectAndDrain.
  void Probes(Tracer& tracer) {
    for (const auto& frame : ctl_frames_) {
      int32_t s = tracer.Begin("rpc.Dispatcher.Handle", frame.seq);
      ipsa::wire::Frame resp = probe_dispatcher_.Handle(frame);
      tracer.End(s);
      ipsa::wire::Reader r(resp.payload);
      Status st;
      outcome.Check(ipsa::rpc::GetStatus(r, st).ok() && st.ok(),
                    "switchd: probe dispatch failed");
    }
    for (uint32_t p = 0; p < kPorts; ++p) {
      for (const Frame& f : frames_[p]) {
        int32_t s = tracer.Begin("daemon.InjectAndDrain", p);
        auto tx =
            ipsa::daemon::InjectAndDrain(probe_backend_, Packet(f.in), p);
        tracer.End(s);
        outcome.Check(tx.ok() && tx->size() == 1 && (*tx)[0].port == p &&
                          std::equal(f.want.begin(), f.want.end(),
                                     (*tx)[0].packet.bytes().begin(),
                                     (*tx)[0].packet.bytes().end()),
                      "switchd: probe InjectAndDrain output differs");
      }
    }
  }

  ipsa::daemon::SwitchdOptions opts_;
  std::unique_ptr<ipsa::daemon::Switchd> daemon_;
  ipsa::compiler::ApiSpec api_;
  std::vector<ipsa::rpc::TableOp> populate_;
  std::unique_ptr<ipsa::rpc::Client> setup_client_;
  std::unique_ptr<ipsa::rpc::Client> ctl_client_;
  ipsa::daemon::IpsaBackend probe_backend_;
  ipsa::rpc::Dispatcher probe_dispatcher_{probe_backend_};
  std::vector<std::vector<Frame>> frames_;
  std::vector<std::vector<ipsa::rpc::TableOp>> ctl_batches_;
  std::vector<ipsa::wire::Frame> ctl_frames_;
  std::vector<ipsa::wire::Socket> socks_;
  std::vector<sockaddr_in> addrs_;
  std::unordered_map<uint64_t, InFlight> inflight_;
  std::vector<uint8_t> send_buf_, want_buf_;
  std::vector<uint8_t> recv_buf_ = std::vector<uint8_t>(64 * 1024);
  uint64_t seq_ = 0;
  uint64_t next_frame_ = 0;
  uint64_t ctl_next_ = 0;
  double speed_ = 1;  // read by the control thread only while it runs
  double syscall_ns_ = 0;
  ipsa::daemon::SwitchdCounters counters_;
  Acc acc_[2];
};

}  // namespace

std::unique_ptr<Scenario> MakeSwitchd() {
  return std::make_unique<SwitchdScenario>();
}

}  // namespace perfbench
