#pragma once
/// \file network.hpp
/// Named interconnect presets and the shared `--network=` flag parser.
///
/// arch::NetworkSpec lives here, next to its registry, so every consumer —
/// the analytic cluster projection (arch/cluster_model.hpp), the real-time
/// runtime::ModeledNetworkPolicy, and the NetworkChargingBackend — shares
/// one vocabulary without pulling in the partition or model headers, and a
/// CLI `--network=eth-100g` means the same interconnect everywhere.
///
/// Flag grammar:  a preset name ("eth-100g") or an inline
/// "LAT_US:BW_GBS" pair ("1.5:12.5" = 1.5 us latency, 12.5 GB/s links).

#include <string>
#include <vector>

namespace semfpga::arch {

/// Interconnect description (per link, MPI-like).
struct NetworkSpec {
  double latency_us = 1.5;      ///< per-message latency
  double bandwidth_gbs = 12.5;  ///< per-link bandwidth (100 Gb/s default)
};

/// Returns the named preset.  Throws std::invalid_argument for unknown
/// names, listing the registered ones.
[[nodiscard]] NetworkSpec network(const std::string& name);

/// Registered preset names, in registration order.  Built in:
///   eth-100g    1.5 us, 12.5 GB/s  (100 Gb/s Ethernet; the NetworkSpec
///                                   defaults, so "eth-100g" == NetworkSpec{})
///   eth-10g     10 us,  1.25 GB/s  (commodity 10 Gb/s Ethernet)
///   ib-hdr      1.0 us, 25 GB/s    (HDR InfiniBand, 200 Gb/s)
///   fpga-serial 0.5 us, 5 GB/s     (point-to-point FPGA serial links,
///                                   Noctua-style direct topology)
[[nodiscard]] std::vector<std::string> known_networks();

/// `known_networks()` joined with '|' — for CLI help strings.
[[nodiscard]] std::string known_networks_joined();

/// Registers (or replaces) a preset under `name` — the seam site-specific
/// interconnect descriptions plug into.
void register_network(const std::string& name, const NetworkSpec& spec);

/// Parses a `--network=` value: preset name or inline "LAT_US:BW_GBS".
/// Throws std::invalid_argument for anything else, listing the presets.
[[nodiscard]] NetworkSpec parse_network_flag(const std::string& value);

}  // namespace semfpga::arch
