#include "core/system_config.hpp"

#include <stdexcept>

namespace cxlgraph::core {

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kHostDram:
      return "host-dram";
    case BackendKind::kHostDramRemote:
      return "host-dram-remote";
    case BackendKind::kCxl:
      return "cxl";
    case BackendKind::kXlfdd:
      return "xlfdd";
    case BackendKind::kBamNvme:
      return "bam-nvme";
    case BackendKind::kUvm:
      return "uvm";
    case BackendKind::kTieredDramCxl:
      return "tiered-dram-cxl";
  }
  throw std::invalid_argument("unknown BackendKind");
}

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBfs:
      return "bfs";
    case Algorithm::kSssp:
      return "sssp";
    case Algorithm::kCc:
      return "cc";
    case Algorithm::kPagerankScan:
      return "pagerank-scan";
    case Algorithm::kBfsDirOpt:
      return "bfs-dir-opt";
    case Algorithm::kSsspDelta:
      return "sssp-delta";
    case Algorithm::kBfsWriteback:
      return "bfs-writeback";
  }
  throw std::invalid_argument("unknown Algorithm");
}

BackendKind backend_from_name(const std::string& name) {
  for (const BackendKind kind :
       {BackendKind::kHostDram, BackendKind::kHostDramRemote,
        BackendKind::kCxl, BackendKind::kXlfdd, BackendKind::kBamNvme,
        BackendKind::kUvm, BackendKind::kTieredDramCxl}) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown backend: " + name);
}

Algorithm algorithm_from_name(const std::string& name) {
  for (const Algorithm algorithm :
       {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kCc,
        Algorithm::kPagerankScan, Algorithm::kBfsDirOpt,
        Algorithm::kSsspDelta, Algorithm::kBfsWriteback}) {
    if (to_string(algorithm) == name) return algorithm;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

bool source_independent(Algorithm algorithm) {
  return algorithm == Algorithm::kCc || algorithm == Algorithm::kPagerankScan;
}

const device::ThermalParams& stack_thermal(const SystemConfig& config,
                                           BackendKind backend) noexcept {
  static const device::ThermalParams kNoThermal{};
  switch (backend) {
    case BackendKind::kCxl:
    case BackendKind::kTieredDramCxl:
      return config.cxl.thermal;
    case BackendKind::kXlfdd:
    case BackendKind::kBamNvme:
    case BackendKind::kUvm:
      return config.storage_thermal;
    default:
      return kNoThermal;
  }
}

SystemConfig table3_system() {
  SystemConfig cfg;
  cfg.gpu_link_gen = device::PcieGen::kGen4;  // RTX A5000, PCIe 4.0 x16
  cfg.dram_local.socket_hop = 0;              // single-socket Xeon
  cfg.dram_remote.socket_hop = util::ps_from_ns(100);
  cfg.xlfdd_drives = device::kXlfddArrayDrives;  // 16 XLFDDs
  cfg.nvme_drives = device::kNvmeArrayDrives;    // 4 NVMe SSDs (6 MIOPS)
  return cfg;
}

SystemConfig table4_system() {
  SystemConfig cfg;
  // Sec. 4.2.2: the GPU link is downgraded to Gen3 so that five CXL devices
  // (64 GPU-visible outstanding reads each = 320) exceed N_max = 256.
  cfg.gpu_link_gen = device::PcieGen::kGen3;
  cfg.dram_local.socket_hop = 0;  // DRAM 1, same socket as the GPU
  cfg.dram_remote.socket_hop = util::ps_from_ns(100);  // DRAM 0 via UPI
  cfg.cxl_devices = 5;
  return cfg;
}

}  // namespace cxlgraph::core
