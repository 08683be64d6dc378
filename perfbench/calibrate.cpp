#include "calibrate.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

constexpr int kNodes = 192;
constexpr int kDegree = 4;
constexpr int kDim = 32;
constexpr int kLayers = 3;
constexpr int kRounds = 6;
constexpr int kTableBits = 20;  // 2^20 4-byte entries: 4 MiB
constexpr int kLoads = 40000;

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// The reference's fixed inputs, made once from a fixed seed.
struct Inputs {
  std::vector<int> neighbours;  // kDegree per node
  std::vector<float> weights;   // kLayers matrices of kDim x kDim
  std::vector<float> features;  // kNodes x kDim
  std::vector<uint32_t> next;   // the table: each entry names the next

  Inputs() {
    uint64_t s = 0x9E3779B97F4A7C15ULL;
    neighbours.resize(kNodes * kDegree);
    for (int& v : neighbours) v = static_cast<int>(XorShift(&s) % kNodes);
    weights.resize(kLayers * kDim * kDim);
    for (float& v : weights) {
      v = static_cast<float>(XorShift(&s) % 2001) / 1000.0f - 1.0f;
    }
    features.resize(kNodes * kDim);
    for (float& v : features) {
      v = static_cast<float>(XorShift(&s) % 1001) / 1000.0f;
    }
    // Sattolo's shuffle: one cycle through every entry, in random order,
    // so consecutive loads land on unrelated cache lines and pages.
    next.resize(size_t{1} << kTableBits);
    for (size_t i = 0; i < next.size(); ++i) next[i] = static_cast<uint32_t>(i);
    for (size_t i = next.size() - 1; i > 0; --i) {
      std::swap(next[i], next[XorShift(&s) % i]);
    }
  }
};

// Keeps the results alive so the compiler cannot drop the work.
volatile float g_sink;

float Compute(const Inputs& in) {
  std::vector<float> h, agg(kNodes * kDim), out(kNodes * kDim);
  float acc = 0.0f;
  for (int round = 0; round < kRounds; ++round) {
    h = in.features;
    for (int layer = 0; layer < kLayers; ++layer) {
      for (int v = 0; v < kNodes; ++v) {
        float* a = &agg[v * kDim];
        for (int d = 0; d < kDim; ++d) a[d] = h[v * kDim + d];
        for (int k = 0; k < kDegree; ++k) {
          const float* u = &h[in.neighbours[v * kDegree + k] * kDim];
          for (int d = 0; d < kDim; ++d) a[d] += u[d];
        }
      }
      const float* w = &in.weights[layer * kDim * kDim];
      for (int v = 0; v < kNodes; ++v) {
        for (int j = 0; j < kDim; ++j) {
          float sum = 0.0f;
          for (int d = 0; d < kDim; ++d) {
            sum += agg[v * kDim + d] * w[d * kDim + j];
          }
          out[v * kDim + j] = sum > 0.0f ? sum * 0.2f : 0.0f;
        }
      }
      h.swap(out);
    }
    acc += h[round];
  }
  return acc;
}

// Follows the cycle for kLoads steps from where the last call stopped.
uint32_t Walk(const Inputs& in) {
  static uint32_t p = 0;
  for (int i = 0; i < kLoads; ++i) p = in.next[p];
  return p;
}

}  // namespace

double ReferenceMs() {
  static const Inputs inputs;
  const int64_t start = ThreadCpuNs();
  const float acc = Compute(inputs);
  const uint32_t p = Walk(inputs);
  const double ms = static_cast<double>(ThreadCpuNs() - start) / 1e6;
  g_sink = acc + static_cast<float>(p);
  return ms;
}

}  // namespace perfbench
