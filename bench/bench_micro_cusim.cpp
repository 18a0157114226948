// Microbenchmarks of the CUDA simulator's dispatch paths: kernel launch
// round trips, stream synchronization, event operations and memcpy. These
// bound the "vanilla" side of the overhead benchmarks — the fixed costs the
// correctness tools add their tracking on top of.
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include <cstddef>
#include <vector>

#include "cusim/device.hpp"
#include "hook_guard.hpp"

namespace {

void BM_LaunchAndSync(benchmark::State& state) {
  cusim::Device device;
  for (auto _ : state) {
    (void)device.launch_kernel(nullptr, {1, 1}, [](const cusim::KernelContext&) {});
    (void)device.device_synchronize();
  }
}
BENCHMARK(BM_LaunchAndSync);

void BM_LaunchBatchThenSync(benchmark::State& state) {
  // Amortized launch cost: enqueue a batch, sync once.
  cusim::Device device;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      (void)device.launch_kernel(nullptr, {1, 1}, [](const cusim::KernelContext&) {});
    }
    (void)device.device_synchronize();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LaunchBatchThenSync)->Arg(8)->Arg(64);

void BM_StreamQueryReady(benchmark::State& state) {
  cusim::Device device;
  (void)device.device_synchronize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.stream_query(device.default_stream()));
  }
}
BENCHMARK(BM_StreamQueryReady);

void BM_EventRecordQuery(benchmark::State& state) {
  cusim::Device device;
  cusim::Event* event = nullptr;
  (void)device.event_create(&event);
  for (auto _ : state) {
    (void)device.event_record(event, device.default_stream());
    benchmark::DoNotOptimize(device.event_query(event));
  }
  (void)device.event_destroy(event);
}
BENCHMARK(BM_EventRecordQuery);

void BM_MemcpyH2D(benchmark::State& state) {
  cusim::Device device;
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  void* d = nullptr;
  (void)device.malloc_device(&d, bytes);
  std::vector<std::byte> h(bytes);
  for (auto _ : state) {
    (void)device.memcpy(d, h.data(), bytes, cusim::MemcpyDir::kHostToDevice);
  }
  (void)device.free(d);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
// Real time: the copy itself runs on the device worker thread, so CPU time
// of the calling thread would overstate throughput.
BENCHMARK(BM_MemcpyH2D)->Range(4096, 16 << 20)->UseRealTime();

void BM_PointerAttributesQuery(benchmark::State& state) {
  cusim::Device device;
  // A realistic registry population.
  std::vector<void*> allocations;
  for (int i = 0; i < 64; ++i) {
    void* p = nullptr;
    (void)device.malloc_device(&p, 4096);
    allocations.push_back(p);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.pointer_attributes(allocations[i % allocations.size()]));
    ++i;
  }
  for (void* p : allocations) {
    (void)device.free(p);
  }
}
BENCHMARK(BM_PointerAttributesQuery);

void BM_CrossStreamEventChain(benchmark::State& state) {
  // producer kernel -> event -> consumer wait -> consumer kernel -> sync.
  cusim::Device device;
  cusim::Stream* producer = nullptr;
  cusim::Stream* consumer = nullptr;
  cusim::Event* event = nullptr;
  (void)device.stream_create(&producer, cusim::StreamFlags::kNonBlocking);
  (void)device.stream_create(&consumer, cusim::StreamFlags::kNonBlocking);
  (void)device.event_create(&event);
  for (auto _ : state) {
    (void)device.launch_kernel(producer, {1, 1}, [](const cusim::KernelContext&) {});
    (void)device.event_record(event, producer);
    (void)device.stream_wait_event(consumer, event);
    (void)device.launch_kernel(consumer, {1, 1}, [](const cusim::KernelContext&) {});
    (void)device.stream_synchronize(consumer);
  }
  (void)device.event_destroy(event);
  (void)device.stream_destroy(producer);
  (void)device.stream_destroy(consumer);
}
BENCHMARK(BM_CrossStreamEventChain);

}  // namespace

int main(int argc, char** argv) {
  {
    // Representative guarded op: the cheapest cusim call that probes the
    // injector on its hot path.
    cusim::Device device;
    void* d = nullptr;
    (void)device.malloc_device(&d, 4096);
    std::vector<std::byte> h(4096);
    const int rc = bench::hook_overhead_guard(
        "cusim memcpy(4 KiB)",
        [&] { (void)device.memcpy(d, h.data(), 4096, cusim::MemcpyDir::kHostToDevice); },
        2000);
    (void)device.free(d);
    if (rc != 0) {
      return rc;
    }
  }
  return bench::run_gbench("micro_cusim", argc, argv);
}
