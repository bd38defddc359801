#pragma once

/// \file arbiter.hpp
/// Single-resource arbiters: round-robin (BookSim's default, the rule the
/// router's switch allocator applies inline on its request bitmasks) and a
/// matrix arbiter as an alternative for micro-architecture experiments.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nocdvfs::noc {

/// N-requester, single-grant arbiter. Usage per cycle: add_request() for
/// each requester, then arbitrate() exactly once; requests are consumed.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  virtual void add_request(int input) = 0;
  /// Returns the granted input, or -1 if there were no requests. Consumes
  /// all pending requests and updates the internal priority state.
  virtual int arbitrate() = 0;
  virtual int size() const noexcept = 0;
  /// Drop pending requests without arbitrating (used on pipeline flush).
  virtual void clear_requests() = 0;

  /// Factory: kind is "roundrobin" or "matrix".
  static std::unique_ptr<Arbiter> create(const std::string& kind, int size);
};

/// Rotating-priority arbiter: after a grant, priority moves to the
/// requester after the winner, guaranteeing starvation freedom.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int size);

  void add_request(int input) override;
  int arbitrate() override;
  int size() const noexcept override { return static_cast<int>(requests_.size()); }
  void clear_requests() override;

  int priority() const noexcept { return next_; }  ///< exposed for tests

 private:
  std::vector<std::uint8_t> requests_;
  std::vector<int> pending_;  ///< indices with requests this cycle
  int next_ = 0;
};

/// Matrix arbiter: least-recently-served priority encoded in a triangular
/// matrix; grants the requester that beats all other requesters.
class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(int size);

  void add_request(int input) override;
  int arbitrate() override;
  int size() const noexcept override { return size_; }
  void clear_requests() override;

 private:
  bool beats(int a, int b) const noexcept;  ///< does a have priority over b
  void served(int winner) noexcept;

  int size_;
  std::vector<std::uint8_t> matrix_;  ///< row-major [a*size+b]: a beats b
  std::vector<std::uint8_t> requests_;
  std::vector<int> pending_;
};

}  // namespace nocdvfs::noc
