#include "noc/router.hpp"

#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"

namespace nocdvfs::noc {

namespace {
/// VA starvation bound: a Waiting VC that fails to win an output VC for
/// this many consecutive cycles is re-routed onto its deterministic escape
/// path (minimal-adaptive routing only).
constexpr int kEscapeWaitCycles = 64;

/// Round-robin pick over a non-empty mask: its lowest set bit at or above
/// `ptr`, else (wrapping around) its lowest set bit.
int round_robin_pick(std::uint64_t mask, int ptr) noexcept {
  const std::uint64_t above = mask & (~std::uint64_t{0} << ptr);
  return std::countr_zero(above != 0 ? above : mask);
}

/// Mask of VCs 0..n-1 (n in [1, 64]).
constexpr std::uint64_t all_vcs(int n) noexcept {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}
}  // namespace

Router::Router(NodeId id, int radix, const RouterConfig& cfg)
    : id_(id),
      cfg_(cfg),
      radix_(radix),
      va_alloc_(radix * cfg.num_vcs, radix * cfg.num_vcs) {
  if (cfg.num_vcs < 1 || cfg.num_vcs > 64) {
    throw std::invalid_argument("Router: num_vcs must be in [1, 64]");
  }
  if (cfg.vc_buffer_depth < 1) {
    throw std::invalid_argument("Router: vc_buffer_depth must be positive");
  }
  if (radix < 1 || radix > kMaxPorts) {
    throw std::invalid_argument("Router: radix must be in [1, kMaxPorts]");
  }

  in_.resize(static_cast<std::size_t>(radix));
  out_.resize(static_cast<std::size_t>(radix));
  const auto n_vcs = static_cast<std::size_t>(cfg.num_vcs);
  for (int p = 0; p < radix; ++p) {
    in_[static_cast<std::size_t>(p)].vcs.assign(n_vcs, InputVc(cfg.vc_buffer_depth));
    out_[static_cast<std::size_t>(p)].vcs.assign(n_vcs, OutputVc{});
    free_vc_[static_cast<std::size_t>(p)] = all_vcs(cfg.num_vcs);
  }
  port_peer_.fill(id);
  first_local_port_ = radix;  // no local ports until told otherwise
}

std::uint64_t Router::VcMasks::count() const noexcept {
  std::uint64_t n = 0;
  for (std::uint32_t ports = any; ports != 0; ports &= ports - 1) {
    n += static_cast<std::uint64_t>(
        std::popcount(port[static_cast<std::size_t>(std::countr_zero(ports))]));
  }
  return n;
}

void Router::set_routing_engine(const topo::RoutingEngine* engine) {
  engine_ = engine;
  adaptive_escape_ = engine != nullptr && engine->adaptive_escape();
}

void Router::connect_input(int port, FlitPort* flit_in, CreditPort* credit_out) {
  auto& ip = in_.at(static_cast<std::size_t>(port));
  NOCDVFS_ASSERT(ip.flit_in == nullptr, "input port wired twice");
  if (flit_in == nullptr || credit_out == nullptr) {
    throw std::invalid_argument("Router::connect_input: null channel");
  }
  ip.flit_in = flit_in;
  ip.credit_out = credit_out;
  wired_in_.push_back(port);
}

void Router::connect_output(int port, FlitPort* flit_out, CreditPort* credit_in) {
  auto& op = out_.at(static_cast<std::size_t>(port));
  NOCDVFS_ASSERT(op.flit_out == nullptr, "output port wired twice");
  if (flit_out == nullptr || credit_in == nullptr) {
    throw std::invalid_argument("Router::connect_output: null channel");
  }
  op.flit_out = flit_out;
  op.credit_in = credit_in;
  wired_out_.push_back(port);
  // Credits mirror the downstream input buffer, one counter per VC.
  for (auto& ovc : op.vcs) ovc.credits = cfg_.vc_buffer_depth;
}

void Router::receive_phase() {
  for (const int q : wired_out_) {
    auto& op = out_[static_cast<std::size_t>(q)];
    if (auto credit = op.credit_in->pop()) {
      auto& ovc = op.vcs[credit->vc];
      NOCDVFS_ASSERT(ovc.credits < cfg_.vc_buffer_depth, "credit counter overflow");
      // 0→1 on a held VC re-enables its owner if the owner has a flit.
      if (ovc.credits++ == 0 && ovc.owner_port >= 0 &&
          sa_candidates_.test(ovc.owner_port, ovc.owner_vc)) {
        sa_ready_.set(ovc.owner_port, ovc.owner_vc);
      }
    }
  }
  for (const int p : wired_in_) {
    auto& ip = in_[static_cast<std::size_t>(p)];
    if (auto flit = ip.flit_in->pop()) {
      const int v = flit->vc;
      auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      NOCDVFS_ASSERT(!ivc.buffer.full(), "flit arrived to a full VC buffer (credit bug)");
      ivc.buffer.push(*flit);
      ++activity_.buffer_writes;
      ++buffered_total_;
      if (flight_recorder_ && flit->head) {
        flight_recorder_->on_router_arrive(flit->packet_id, id_);
      }
      switch (ivc.state) {
        case VcStateKind::Idle: rc_.set(p, v); break;
        case VcStateKind::Waiting: break;
        case VcStateKind::Active:
          sa_candidates_.set(p, v);
          if (out_[static_cast<std::size_t>(ivc.out_port)]
                  .vcs[static_cast<std::size_t>(ivc.out_vc)]
                  .credits > 0) {
            sa_ready_.set(p, v);
          }
          break;
        case VcStateKind::Drop: drop_.set(p, v); break;
      }
    }
  }
}

void Router::compute_phase() {
  if (stall_tracking_ && buffered_total_ > 0) {
    forward_tracked();
  } else {
    forward();
  }
  if (waiting_.any != 0) vc_allocation();
  if (rc_.any != 0) route_computation();
}

void Router::forward() {
  const std::uint32_t credit_pushed = sa_ready_.any != 0 ? switch_allocation_and_traversal() : 0;
  if (drop_.any != 0) drain_drops(credit_pushed);
}

void Router::forward_tracked() {
  // Classify every busy VC before any stage runs: what could this VC have
  // done this cycle? The work sets answer it directly, and the answer is
  // exact because nothing a stage does can retroactively change it —
  // credits only replenish in receive_phase, VA/RC run *after* SA, an
  // RC-created Drop VC cannot drain in the same cycle, and the drain stage
  // only empties pre-classified Drop VCs.
  const std::uint64_t n_route = rc_.count();
  const std::uint64_t n_va = waiting_.count();
  const std::uint64_t n_eligible = sa_ready_.count();
  const std::uint64_t n_credit = sa_candidates_.count() - n_eligible;  // sa_ready_ ⊆ candidates
  const std::uint64_t n_drop = drop_.count();

  const std::uint64_t grants_before = activity_.sw_alloc_grants;
  const std::uint64_t drops_before = dropped_flits_;
  forward();

  // Each SA grant consumed one pre-classified eligible VC (the allocator
  // never grants an input port twice per cycle), each drain emptied one
  // flit from a pre-classified Drop VC; the rest of each class stalled.
  const std::uint64_t granted = activity_.sw_alloc_grants - grants_before;
  const std::uint64_t drained = dropped_flits_ - drops_before;
  NOCDVFS_ASSERT(granted <= n_eligible, "SA granted more VCs than were eligible");
  NOCDVFS_ASSERT(drained <= n_drop, "drained more Drop VCs than were buffered");
  stalls_.route += n_route;
  stalls_.vc_alloc += n_va;
  stalls_.credit += n_credit;
  stalls_.sw += n_eligible - granted;
  stalls_.drop += n_drop - drained;
  stalls_.busy_vc_cycles += n_route + n_va + n_credit + n_eligible + n_drop;
  stalls_.forwarded += granted + drained;
}

std::uint32_t Router::switch_allocation_and_traversal() {
  // Stage 1 (input arbitration): each input port selects one SA-ready VC,
  // the first at or after its round-robin pointer, wrapping around.
  std::array<int, kMaxPorts> chosen_vc{};
  std::array<std::uint32_t, kMaxPorts> requests{};  ///< per output: input ports
  std::uint32_t requested_outs = 0;
  for (std::uint32_t ports = sa_ready_.any; ports != 0; ports &= ports - 1) {
    const int p = std::countr_zero(ports);
    const int v = round_robin_pick(sa_ready_.port[static_cast<std::size_t>(p)],
                                   sa_input_ptr_[static_cast<std::size_t>(p)]);
    chosen_vc[static_cast<std::size_t>(p)] = v;
    const int q = in_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(v)].out_port;
    requests[static_cast<std::size_t>(q)] |= std::uint32_t{1} << p;
    requested_outs |= std::uint32_t{1} << q;
    ++activity_.alloc_requests;
  }

  // Stage 2 (output arbitration), outputs ascending: each grants the first
  // requesting input port at or after its pointer. Pointers advance only
  // on a grant (iSLIP discipline).
  std::uint32_t granted_ins = 0;
  for (; requested_outs != 0; requested_outs &= requested_outs - 1) {
    const int q = std::countr_zero(requested_outs);
    const int winner = round_robin_pick(requests[static_cast<std::size_t>(q)],
                                        sa_output_ptr_[static_cast<std::size_t>(q)]);
    const int v = chosen_vc[static_cast<std::size_t>(winner)];
    sa_output_ptr_[static_cast<std::size_t>(q)] = winner + 1 == radix_ ? 0 : winner + 1;
    sa_input_ptr_[static_cast<std::size_t>(winner)] = v + 1 == cfg_.num_vcs ? 0 : v + 1;
    ++activity_.sw_alloc_grants;
    granted_ins |= std::uint32_t{1} << winner;
    traverse(winner, v);
  }
  return granted_ins;
}

void Router::traverse(int in_port, int in_vc) {
  auto& ip = in_[static_cast<std::size_t>(in_port)];
  auto& ivc = ip.vcs[static_cast<std::size_t>(in_vc)];
  const int out_port = ivc.out_port;
  auto& op = out_[static_cast<std::size_t>(out_port)];
  auto& ovc = op.vcs[static_cast<std::size_t>(ivc.out_vc)];

  Flit flit = ivc.buffer.pop();
  --buffered_total_;
  ++activity_.buffer_reads;
  ++activity_.crossbar_traversals;
  ++port_flits_tx_[static_cast<std::size_t>(out_port)];

  NOCDVFS_ASSERT(ovc.credits > 0, "switch traversal without credit");
  --ovc.credits;
  flit.vc = static_cast<std::uint8_t>(ivc.out_vc);
  ++flit.hops;
  if (traverse_hook_) engine_->on_traverse(id_, out_port, flit);
  if (flight_recorder_ && flit.head) {
    flight_recorder_->on_depart(flit.packet_id, id_, out_port);
  }
  if (out_port >= first_local_port_) {
    ++activity_.local_flit_hops;
  } else {
    ++activity_.link_flit_hops;
  }
  op.flit_out->push(flit);

  // Freed buffer slot: credit flows back to the upstream sender.
  NOCDVFS_ASSERT(ip.credit_out != nullptr, "dequeue from port without credit channel");
  ip.credit_out->push(Credit{static_cast<std::uint8_t>(in_vc)});

  if (wake_ != nullptr) {
    // Both pushes target another clock domain's inputs: the flit wakes the
    // downstream tile, the credit the upstream one (the only mechanism by
    // which a drained-but-credit-starved router ever resumes).
    wake_->wake(port_peer_[static_cast<std::size_t>(out_port)]);
    wake_->wake(port_peer_[static_cast<std::size_t>(in_port)]);
  }

  if (flit.tail) {
    free_vc_[static_cast<std::size_t>(out_port)] |= std::uint64_t{1} << ivc.out_vc;
    ovc.owner_port = -1;
    ovc.owner_vc = -1;
    sa_candidates_.clear(in_port, in_vc);
    sa_ready_.clear(in_port, in_vc);
    end_packet(in_port, in_vc);
  } else if (ivc.buffer.empty()) {
    sa_candidates_.clear(in_port, in_vc);
    sa_ready_.clear(in_port, in_vc);
  } else if (ovc.credits == 0) {
    sa_ready_.clear(in_port, in_vc);
  }
}

void Router::drain_drops(std::uint32_t credit_pushed) {
  // One flit per input port per cycle leaves a Drop VC: the buffer read and
  // upstream credit mimic a normal dequeue (so flow control stays exact),
  // but the flit lands in the drop counters instead of the crossbar. A port
  // whose credit of the cycle already went to a traversal waits.
  for (const int p : wired_in_) {
    const std::uint64_t drops = drop_.port[static_cast<std::size_t>(p)];
    if (drops == 0 || ((credit_pushed >> p) & 1u) != 0) continue;
    auto& ip = in_[static_cast<std::size_t>(p)];
    const int v = std::countr_zero(drops);
    auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
    const Flit flit = ivc.buffer.pop();
    --buffered_total_;
    ++activity_.buffer_reads;
    ++dropped_flits_;
    if (flit.head) ++dropped_packets_;
    if (flight_recorder_ && flit.head) flight_recorder_->on_drop(flit.packet_id, id_);
    ip.credit_out->push(Credit{static_cast<std::uint8_t>(v)});
    if (wake_ != nullptr) wake_->wake(port_peer_[static_cast<std::size_t>(p)]);
    if (flit.tail || ivc.buffer.empty()) drop_.clear(p, v);
    if (flit.tail) end_packet(p, v);
  }
}

void Router::end_packet(int p, int v) {
  auto& ivc = in_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(v)];
  ivc.state = VcStateKind::Idle;
  ivc.out_port = -1;
  ivc.out_vc = -1;
  if (!ivc.buffer.empty()) {
    NOCDVFS_ASSERT(ivc.buffer.front().head, "flit following a tail must be a head");
    rc_.set(p, v);  // the next packet's head awaits route computation
  }
}

void Router::vc_allocation() {
  const int v_count = cfg_.num_vcs;
  bool any_request = false;
  for (const int p : wired_in_) {
    auto& ip = in_[static_cast<std::size_t>(p)];
    for (std::uint64_t w = waiting_.port[static_cast<std::size_t>(p)]; w != 0; w &= w - 1) {
      const int v = std::countr_zero(w);
      auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      if (adaptive_escape_ && ++ivc.wait_cycles >= kEscapeWaitCycles) {
        // Starved of an output VC: abandon the adaptive choice and confine
        // the packet to its deterministic escape path, whose VC class the
        // Duato argument keeps deadlock-free.
        Flit& head = ivc.buffer.front();
        const topo::RouteDecision escape = engine_->route(id_, head, *this, true);
        ivc.out_port = escape.out_port;
        ivc.vc_mask = escape.vc_mask;
        ivc.wait_cycles = 0;
        ++escape_reroutes_;
      }
      const int agent = p * v_count + v;
      const std::uint64_t wanted = ivc.vc_mask & free_vc_[static_cast<std::size_t>(ivc.out_port)];
      activity_.alloc_requests += static_cast<std::uint64_t>(std::popcount(wanted));
      for (std::uint64_t u = wanted; u != 0; u &= u - 1) {
        va_alloc_.add_request(agent, ivc.out_port * v_count + std::countr_zero(u));
        any_request = true;
      }
    }
  }
  if (!any_request) return;

  for (const auto& [agent, resource] : va_alloc_.allocate()) {
    const int p = agent / v_count;
    const int v = agent % v_count;
    const int q = resource / v_count;
    const int u = resource % v_count;
    auto& ivc = in_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(v)];
    auto& ovc = out_[static_cast<std::size_t>(q)].vcs[static_cast<std::size_t>(u)];
    auto& free = free_vc_[static_cast<std::size_t>(q)];
    NOCDVFS_ASSERT(ivc.state == VcStateKind::Waiting, "VA grant to non-waiting VC");
    NOCDVFS_ASSERT(((free >> u) & 1u) != 0, "VA granted an allocated output VC");
    NOCDVFS_ASSERT(q == ivc.out_port, "VA grant on wrong output port");
    ivc.state = VcStateKind::Active;
    waiting_.clear(p, v);
    // A Waiting VC always still buffers its head flit, so it becomes an SA
    // candidate immediately (and SA-ready if the VC has a credit).
    sa_candidates_.set(p, v);
    if (ovc.credits > 0) sa_ready_.set(p, v);
    if (flight_recorder_) {
      flight_recorder_->on_vc_grant(ivc.buffer.front().packet_id, id_, u);
    }
    ivc.out_vc = u;
    free &= ~(std::uint64_t{1} << u);
    ovc.owner_port = p;
    ovc.owner_vc = v;
    ++activity_.vc_alloc_grants;
  }
}

void Router::route_computation() {
  for (const int p : wired_in_) {
    const std::uint64_t pending = rc_.port[static_cast<std::size_t>(p)];
    if (pending == 0) continue;
    auto& ip = in_[static_cast<std::size_t>(p)];
    for (std::uint64_t m = pending; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      rc_.clear(p, v);
      auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      Flit& head = ivc.buffer.front();
      NOCDVFS_ASSERT(head.head, "non-head flit at the front of an Idle VC");
      const topo::RouteDecision decision = engine_->route(id_, head, *this, false);
      if (decision.out_port < 0) {
        // No surviving route: drain the packet into the drop counters.
        ivc.state = VcStateKind::Drop;
        drop_.set(p, v);
        continue;
      }
      ivc.out_port = decision.out_port;
      ivc.vc_mask = decision.vc_mask;
      if (flight_recorder_) {
        flight_recorder_->on_route(head.packet_id, id_, ivc.out_port);
      }
      NOCDVFS_ASSERT(out_[static_cast<std::size_t>(ivc.out_port)].connected(),
                     "route computed towards an unwired port");
      ivc.wait_cycles = 0;
      ivc.state = VcStateKind::Waiting;
      waiting_.set(p, v);
    }
  }
}

int Router::downstream_backlog(int port) const {
  const auto& op = out_[static_cast<std::size_t>(port)];
  int backlog = 0;
  for (const auto& ovc : op.vcs) backlog += cfg_.vc_buffer_depth - ovc.credits;
  return backlog;
}

void Router::audit_masks() const {
  auto fail = [this](const std::string& what) {
    throw common::InvariantViolation("router " + std::to_string(id_) + ": " + what);
  };
  // Rebuild every work set from the VC state, then compare.
  VcMasks rc, waiting, candidates, ready, drop;
  std::array<std::uint64_t, kMaxPorts> free{};
  int buffered = 0, active = 0, held = 0;
  for (int p = 0; p < radix_; ++p) {
    free[static_cast<std::size_t>(p)] = all_vcs(cfg_.num_vcs);
    for (int u = 0; u < cfg_.num_vcs; ++u) {
      if (out_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(u)].owner_port < 0) {
        continue;
      }
      free[static_cast<std::size_t>(p)] &= ~(std::uint64_t{1} << u);
      ++held;
    }
    for (int v = 0; v < cfg_.num_vcs; ++v) {
      const auto& ivc = in_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(v)];
      const bool busy = !ivc.buffer.empty();
      buffered += static_cast<int>(ivc.buffer.size());
      switch (ivc.state) {
        case VcStateKind::Idle:
          if (busy) rc.set(p, v);
          break;
        case VcStateKind::Waiting: waiting.set(p, v); break;
        case VcStateKind::Active: {
          // Each Active VC's output VC names it as owner; with as many held
          // output VCs as Active VCs, that makes ownership a bijection.
          if (ivc.out_port < 0 || ivc.out_port >= radix_ || ivc.out_vc < 0 ||
              ivc.out_vc >= cfg_.num_vcs) {
            fail("Active VC without a valid output VC");
          }
          const auto& ovc = out_[static_cast<std::size_t>(ivc.out_port)]
                                .vcs[static_cast<std::size_t>(ivc.out_vc)];
          if (ovc.owner_port != p || ovc.owner_vc != v) fail("held output VC names another owner");
          ++active;
          if (busy) candidates.set(p, v);
          if (busy && ovc.credits > 0) ready.set(p, v);
          break;
        }
        case VcStateKind::Drop:
          if (busy) drop.set(p, v);
          break;
      }
    }
  }
  auto same = [](const VcMasks& a, const VcMasks& b) { return a.any == b.any && a.port == b.port; };
  if (held != active) fail("held output VCs != Active input VCs");
  if (!same(rc_, rc)) fail("rc mask != Idle VCs with a buffered head");
  if (!same(waiting_, waiting)) fail("waiting mask != Waiting VCs");
  if (!same(sa_candidates_, candidates)) fail("sa_candidates mask != buffered Active VCs");
  if (!same(sa_ready_, ready)) fail("sa_ready mask != buffered Active VCs with a credit");
  if (!same(drop_, drop)) fail("drop mask != buffered Drop VCs");
  if (free_vc_ != free) fail("free_vc mask != unheld output VCs");
  if (buffered != buffered_total_) fail("buffered_total_ != buffered flits");
}

}  // namespace nocdvfs::noc
