// Runtime CPU dispatch for the XNOR kernel family.
//
// Resolution happens once per process, on the first active_xnor_kernel()
// call: HOTSPOT_SIMD is read and strictly validated (an unknown value, a
// kernel not compiled into this binary, or one the running CPU cannot
// execute all print the reason and exit 2 — never a silent fallback), the
// winner is logged, and the bitops.kernel gauge plus the run-manifest
// "xnor_kernel" note are published so every BENCH_*.json and metrics export
// records which kernel produced its numbers.
//
// CPU capability checks go through __builtin_cpu_supports, which also
// accounts for OS XSAVE state (AVX registers saved across context
// switches), not just raw cpuid bits.
#include "bitops/kernels/xnor_kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace hotspot::bitops {

#if defined(HOTSPOT_XNOR_AVX2)
const XnorKernel& xnor_kernel_avx2();
#endif
#if defined(HOTSPOT_XNOR_AVX512)
const XnorKernel& xnor_kernel_avx512();
#endif

namespace {

// Names the HOTSPOT_SIMD grammar accepts beyond "auto", whether or not the
// matching kernel was compiled in — distinguishes "unknown value" from
// "known kernel this binary does not carry".
constexpr const char* kKnownKernelNames[] = {"scalar", "avx2", "avx512"};

// __builtin_cpu_supports requires literal feature names, hence one helper
// per check instead of a string-parameterized one.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_avx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }
#endif

bool is_known_kernel_name(const char* name) {
  for (const char* known : kKnownKernelNames) {
    if (std::strcmp(name, known) == 0) {
      return true;
    }
  }
  return false;
}

std::atomic<const XnorKernel*> g_active_kernel{nullptr};
std::once_flag g_resolve_once;

void publish_active(const XnorKernel& kernel, const char* origin) {
  obs::MetricsRegistry::global().gauge("bitops.kernel").set(
      static_cast<double>(kernel.simd_bits));
  obs::set_manifest_note("xnor_kernel", kernel.name);
  HOTSPOT_LOG(kInfo) << "bitops: XNOR kernel '" << kernel.name << "' ("
                     << kernel.simd_bits << "-bit, " << origin << ")";
}

// Widest compiled kernel the running CPU supports; compiled_xnor_kernels()
// is ordered scalar first, widest last, and scalar always qualifies.
const XnorKernel& widest_supported_kernel() {
  const XnorKernel* best = &xnor_kernel_scalar();
  for (const XnorKernel* kernel : compiled_xnor_kernels()) {
    if (xnor_kernel_cpu_supported(*kernel)) {
      best = kernel;
    }
  }
  return *best;
}

const XnorKernel& resolve_from_env_or_exit() {
  const char* spec = std::getenv("HOTSPOT_SIMD");
  std::string error;
  const XnorKernel* kernel = resolve_xnor_kernel(spec, error);
  if (kernel == nullptr) {
    std::fprintf(stderr, "HOTSPOT_SIMD=%s: %s\n", spec == nullptr ? "" : spec,
                 error.c_str());
    std::exit(2);
  }
  return *kernel;
}

}  // namespace

const std::vector<const XnorKernel*>& compiled_xnor_kernels() {
  static const std::vector<const XnorKernel*> kernels = [] {
    std::vector<const XnorKernel*> list;
    list.push_back(&xnor_kernel_scalar());
#if defined(HOTSPOT_XNOR_AVX2)
    list.push_back(&xnor_kernel_avx2());
#endif
#if defined(HOTSPOT_XNOR_AVX512)
    list.push_back(&xnor_kernel_avx512());
#endif
    return list;
  }();
  return kernels;
}

bool xnor_kernel_cpu_supported(const XnorKernel& kernel) {
  if (std::strcmp(kernel.name, "scalar") == 0) {
    return true;
  }
  if (std::strcmp(kernel.name, "avx2") == 0) {
    return cpu_has_avx2();
  }
  if (std::strcmp(kernel.name, "avx512") == 0) {
    return cpu_has_avx512();
  }
  return false;
}

const XnorKernel* find_xnor_kernel(const char* name) {
  if (name == nullptr) {
    return nullptr;
  }
  for (const XnorKernel* kernel : compiled_xnor_kernels()) {
    if (std::strcmp(kernel->name, name) == 0) {
      return kernel;
    }
  }
  return nullptr;
}

const XnorKernel* resolve_xnor_kernel(const char* spec, std::string& error) {
  if (spec == nullptr || *spec == '\0' || std::strcmp(spec, "auto") == 0) {
    return &widest_supported_kernel();
  }
  const XnorKernel* kernel = find_xnor_kernel(spec);
  if (kernel == nullptr) {
    if (is_known_kernel_name(spec)) {
      error = std::string("kernel '") + spec +
              "' is not compiled into this binary (expected one of: scalar";
#if defined(HOTSPOT_XNOR_AVX2)
      error += ", avx2";
#endif
#if defined(HOTSPOT_XNOR_AVX512)
      error += ", avx512";
#endif
      error += ", auto)";
    } else {
      error = std::string("unknown value '") + spec +
              "' (expected scalar|avx2|avx512|auto)";
    }
    return nullptr;
  }
  if (!xnor_kernel_cpu_supported(*kernel)) {
    error = std::string("kernel '") + spec +
            "' is compiled in but this CPU cannot execute it";
    return nullptr;
  }
  return kernel;
}

const XnorKernel& active_xnor_kernel() {
  const XnorKernel* kernel = g_active_kernel.load(std::memory_order_acquire);
  if (kernel != nullptr) {
    return *kernel;
  }
  std::call_once(g_resolve_once, [] {
    // set_active_xnor_kernel may have won the race for the once-flag's
    // store; only resolve if nothing is published yet.
    if (g_active_kernel.load(std::memory_order_acquire) != nullptr) {
      return;
    }
    const XnorKernel& resolved = resolve_from_env_or_exit();
    publish_active(resolved, std::getenv("HOTSPOT_SIMD") != nullptr
                                 ? "HOTSPOT_SIMD"
                                 : "auto-detected");
    g_active_kernel.store(&resolved, std::memory_order_release);
  });
  return *g_active_kernel.load(std::memory_order_acquire);
}

void set_active_xnor_kernel(const XnorKernel& kernel) {
  // Store first, then consume the once-flag: a concurrent
  // active_xnor_kernel() either sees this kernel inside its once-lambda, or
  // its passive call_once return synchronizes with this invocation and the
  // final load observes the store. Either way no env overwrite and no null.
  g_active_kernel.store(&kernel, std::memory_order_release);
  std::call_once(g_resolve_once, [] {});
  publish_active(kernel, "set_active_xnor_kernel");
}

namespace detail {
const XnorKernel& resolve_active_from_env_for_test() {
  return resolve_from_env_or_exit();
}
}  // namespace detail

}  // namespace hotspot::bitops
