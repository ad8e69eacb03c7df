// Simulated time with picosecond resolution.
//
// The paper reports demand for timestamp precision below 100 picoseconds
// (§2), so the simulator's base tick is one picosecond. A signed 64-bit
// count of picoseconds covers ~106 days, far beyond a 6.5-hour trading day.
//
// `Duration` is a span of time; `Time` is a point on the simulation clock
// (picoseconds since the start of the run). They are distinct types so that
// e.g. adding two `Time`s does not compile.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace tsn::sim {

class Duration {
 public:
  constexpr Duration() noexcept = default;
  constexpr explicit Duration(std::int64_t picos) noexcept : picos_(picos) {}

  [[nodiscard]] constexpr std::int64_t picos() const noexcept { return picos_; }
  [[nodiscard]] constexpr double nanos() const noexcept { return static_cast<double>(picos_) * 1e-3; }
  [[nodiscard]] constexpr double micros() const noexcept { return static_cast<double>(picos_) * 1e-6; }
  [[nodiscard]] constexpr double millis() const noexcept { return static_cast<double>(picos_) * 1e-9; }
  [[nodiscard]] constexpr double seconds() const noexcept { return static_cast<double>(picos_) * 1e-12; }

  constexpr auto operator<=>(const Duration&) const noexcept = default;

  constexpr Duration& operator+=(Duration rhs) noexcept {
    picos_ += rhs.picos_;
    return *this;
  }
  constexpr Duration& operator-=(Duration rhs) noexcept {
    picos_ -= rhs.picos_;
    return *this;
  }
  constexpr Duration& operator*=(std::int64_t k) noexcept {
    picos_ *= k;
    return *this;
  }

  [[nodiscard]] static constexpr Duration zero() noexcept { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() noexcept {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

 private:
  std::int64_t picos_ = 0;
};

[[nodiscard]] constexpr Duration operator+(Duration a, Duration b) noexcept {
  return Duration{a.picos() + b.picos()};
}
[[nodiscard]] constexpr Duration operator-(Duration a, Duration b) noexcept {
  return Duration{a.picos() - b.picos()};
}
[[nodiscard]] constexpr Duration operator*(Duration a, std::int64_t k) noexcept {
  return Duration{a.picos() * k};
}
[[nodiscard]] constexpr Duration operator*(std::int64_t k, Duration a) noexcept { return a * k; }
[[nodiscard]] constexpr Duration operator/(Duration a, std::int64_t k) noexcept {
  return Duration{a.picos() / k};
}
[[nodiscard]] constexpr std::int64_t operator/(Duration a, Duration b) noexcept {
  return a.picos() / b.picos();
}
[[nodiscard]] constexpr Duration operator-(Duration a) noexcept { return Duration{-a.picos()}; }

// Factory functions. Integer overloads are exact; double overloads round to
// the nearest picosecond.
[[nodiscard]] constexpr Duration picos(std::int64_t n) noexcept { return Duration{n}; }
[[nodiscard]] constexpr Duration nanos(std::int64_t n) noexcept { return Duration{n * 1'000}; }
[[nodiscard]] constexpr Duration micros(std::int64_t n) noexcept { return Duration{n * 1'000'000}; }
[[nodiscard]] constexpr Duration millis(std::int64_t n) noexcept { return Duration{n * 1'000'000'000}; }
[[nodiscard]] constexpr Duration seconds(std::int64_t n) noexcept {
  return Duration{n * 1'000'000'000'000};
}
[[nodiscard]] constexpr Duration nanos(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1e3 + (n >= 0 ? 0.5 : -0.5))};
}
[[nodiscard]] constexpr Duration micros(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1e6 + (n >= 0 ? 0.5 : -0.5))};
}
[[nodiscard]] constexpr Duration millis(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1e9 + (n >= 0 ? 0.5 : -0.5))};
}
[[nodiscard]] constexpr Duration seconds(double n) noexcept {
  return Duration{static_cast<std::int64_t>(n * 1e12 + (n >= 0 ? 0.5 : -0.5))};
}

class Time {
 public:
  constexpr Time() noexcept = default;
  constexpr explicit Time(std::int64_t picos) noexcept : picos_(picos) {}

  [[nodiscard]] constexpr std::int64_t picos() const noexcept { return picos_; }
  [[nodiscard]] constexpr double nanos() const noexcept { return static_cast<double>(picos_) * 1e-3; }
  [[nodiscard]] constexpr double micros() const noexcept { return static_cast<double>(picos_) * 1e-6; }
  [[nodiscard]] constexpr double seconds() const noexcept { return static_cast<double>(picos_) * 1e-12; }
  [[nodiscard]] constexpr Duration since_epoch() const noexcept { return Duration{picos_}; }

  constexpr auto operator<=>(const Time&) const noexcept = default;

  constexpr Time& operator+=(Duration d) noexcept {
    picos_ += d.picos();
    return *this;
  }
  constexpr Time& operator-=(Duration d) noexcept {
    picos_ -= d.picos();
    return *this;
  }

  [[nodiscard]] static constexpr Time zero() noexcept { return Time{0}; }
  [[nodiscard]] static constexpr Time max() noexcept {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

 private:
  std::int64_t picos_ = 0;
};

[[nodiscard]] constexpr Time operator+(Time t, Duration d) noexcept {
  return Time{t.picos() + d.picos()};
}
[[nodiscard]] constexpr Time operator+(Duration d, Time t) noexcept { return t + d; }
[[nodiscard]] constexpr Time operator-(Time t, Duration d) noexcept {
  return Time{t.picos() - d.picos()};
}
[[nodiscard]] constexpr Duration operator-(Time a, Time b) noexcept {
  return Duration{a.picos() - b.picos()};
}
// `base + delta` clamped to Time::max(), so a max() window means "run
// everything up to the deadline".
[[nodiscard]] constexpr Time saturating_add(Time base, Duration delta) noexcept {
  if (delta.picos() >= Time::max().picos() - base.picos()) return Time::max();
  return base + delta;
}

// Renders a duration with an auto-selected unit, e.g. "512 ns" or "1.2 us".
[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(Time t);

}  // namespace tsn::sim
