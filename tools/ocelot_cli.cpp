// ocelot — command-line front end for the Ocelot compression library.
//
// Subcommands:
//   generate <app> <field> <scale> <out.ocf>   synthesize a test field
//   compress <in.ocf> <out.ocz> [eb] [mode] [backend]  (or key=value)
//   compress <in.ocf> <out.ocb> policy=adaptive [block_slabs=N] ...
//                                              per-block adaptive backend /
//                                              error-bound selection
//   compress - <out|-> slab=AxB [block_slabs=N] [key=value...]
//                                              stream raw floats from stdin,
//                                              chunked into an OCB1 container
//   decompress <in.ocz|in.ocb> <out.ocf>       (OCB1 containers accepted)
//   decompress <in|-> -                        stream raw floats to stdout
//   advise <in.ocf|in.ocb> [key=value...]      per-block decision table of
//                                              the adaptive advisor
//   info <file> [json=1]                       inspect OCF1/OCZ1/OCB1 headers
//   stats <in.ocf|in.ocz|in.ocb> [json=1]      profile a (de)compression and
//                                              print the per-stage breakdown
//   backends                                   list backends and stages
//   diff <a.ocf> <b.ocf>                       PSNR / max error
//   simulate <campaign>... | --demo            multi-campaign orchestrator
//   serve unix=/path [port=N] [tenants=...]    ocelotd: multi-tenant
//                                              compression daemon (OCR1
//                                              frames, fair scheduling)
//   client connect=... compress|decompress|ping  talk to a running ocelotd
//
// Observability: `compress`/`stats`/`simulate` accept trace=out.json
// (Chrome trace-event / Perfetto span timeline) and compress accepts
// stats=1 (per-stage metrics report after the run); see src/obs/.
//
// Files use the repo's self-describing formats: OCF1 raw fields, OCZ1
// compressed blobs, and OCB1 block containers. Compression families
// come from the backend table, so a new row is immediately selectable
// here without CLI changes.
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/entropy.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/stats.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "compressor/backend.hpp"
#include "compressor/compressor.hpp"
#include "common/timer.hpp"
#include "core/adaptive.hpp"
#include "core/engine.hpp"
#include "core/stream_codec.hpp"
#include "core/workload.hpp"
#include "datagen/campaigns.hpp"
#include "datagen/datasets.hpp"
#include "exec/parallel_codec.hpp"
#include "io/block_container.hpp"
#include "io/dataset_file.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "orchestrator/orchestrator.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"

namespace {

using namespace ocelot;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw NotFound("cannot open " + path);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::string shape_label(const Shape& shape) {
  std::string label = std::to_string(shape.dim(0));
  for (int d = 1; d < shape.rank(); ++d) {
    label += 'x';
    label += std::to_string(shape.dim(d));
  }
  return label;
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() != 4) {
    std::cerr << "usage: ocelot generate <app> <field> <scale> <out.ocf>\n";
    return 2;
  }
  const FloatArray data =
      generate_field(args[0], args[1], std::stod(args[2]), 42);
  write_file(args[3], save_field(args[0] + "/" + args[1], data));
  std::cout << "wrote " << args[3] << " (" << shape_label(data.shape())
            << ", " << fmt_bytes(static_cast<double>(data.byte_size()))
            << ")\n";
  return 0;
}

/// Display name for a backend wire id from a container index ("#id"
/// for foreign ids).
std::string backend_label(std::uint8_t id) {
  const auto table = backends();
  if (id < table.size()) return table[id].name;
  // Not "#" + std::to_string(id): GCC 12 flags that here with a false
  // -Wrestrict.
  return std::string("#").append(std::to_string(id));
}

/// Display name for an entropy-stage wire id from a container index or
/// blob header ("?" for the unknown sentinel, "#id" for foreign ids).
std::string entropy_stage_label(std::uint8_t id) {
  if (id == kUnknownEntropyId) return "?";
  for (const EntropyStageEntry* stage : entropy_stages()) {
    if (stage->wire_id == id) return stage->name;
  }
  return "#" + std::to_string(id);
}

/// Parses "A" or "AxB" into streaming slab dimensions.
std::vector<std::size_t> parse_slab(const std::string& value) {
  std::vector<std::size_t> dims;
  for (const std::string& part : split(value, 'x')) {
    try {
      std::size_t consumed = 0;
      const unsigned long long d = std::stoull(part, &consumed);
      if (consumed != part.size() || d == 0) throw std::invalid_argument(part);
      dims.push_back(static_cast<std::size_t>(d));
    } catch (const std::exception&) {
      throw InvalidArgument("bad slab value: " + value +
                            " (expected e.g. 256 or 256x256)");
    }
  }
  if (dims.empty() || dims.size() > 2)
    throw InvalidArgument("slab must name 1 or 2 dimensions");
  return dims;
}

int cmd_compress(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr << "usage: ocelot compress <in.ocf> <out.ocz> [eb=1e-3] "
                 "[mode=rel|abs] [backend=sz3]\n"
              << "       ocelot compress <in.ocf> <out.ocb> policy=adaptive "
                 "[block_slabs=N] [backends=a,b] [entropy_stages=a,b] "
                 "[eb_scales=1,0.5] [min_psnr=60] [workers=N]\n"
              << "       ocelot compress - <out.ocb|-> slab=AxB "
                 "[block_slabs=N] [eb=...] [mode=...] [backend=...]\n"
              << "       trailing options also accept key=value form, "
                 "e.g. backend=multigrid eb=1e-4\n"
              << "       `-` streams raw float32 from stdin in block-sized "
                 "chunks (slab = trailing dims of one slab)\n"
              << "       policy=adaptive picks each block's backend / error "
                 "bound online (see `ocelot advise`)\n"
              << "       trace=out.json writes a Perfetto span timeline; "
                 "stats=1 prints the per-stage breakdown\n"
              << "       entropy=<stage> swaps the quantized-code entropy "
                 "coder (see `ocelot backends` for both tables)\n";
    return 2;
  }
  const bool streaming = args[0] == "-";

  // Trailing options: positional [eb] [mode] [backend], with key=value
  // accepted anywhere (so `backend=multigrid` works without spelling
  // out eb and mode first). A bare arg fills the first positional slot
  // whose key has not been given yet, so forms mix freely. The
  // streaming-only knobs (slab, block_slabs) are key=value only.
  const char* kSlots[] = {"eb", "mode", "backend"};
  bool given[3] = {false, false, false};
  OptionSet options;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      std::size_t slot = 0;
      while (slot < 3 && given[slot]) ++slot;
      if (slot == 3)
        throw InvalidArgument("too many compress options at: " + arg);
      key = kSlots[slot];
      value = arg;
    }
    for (std::size_t slot = 0; slot < 3; ++slot) {
      if (key == kSlots[slot] || (key == "pipeline" && slot == 2)) {
        given[slot] = true;
      }
    }
    options.set(key, value);
  }

  // The CLI-only knobs come off first; the engine then consumes the
  // shared compression keys, and anything left over is a typo.
  const bool slab_given = options.has("slab");
  const bool block_slabs_given = options.has("block_slabs");
  std::vector<std::size_t> slab_dims;
  if (slab_given) slab_dims = parse_slab(options.get_string("slab"));
  const std::string trace_path = options.get_string("trace");
  if (options.has("trace") && trace_path.empty()) {
    throw InvalidArgument("trace needs a file path");
  }
  const bool show_stats = options.get_flag("stats", false);

  CompressionOptionRules rules;
  rules.advisor_knobs_need_policy = true;
  const EngineRequest request = parse_compression_options(options, rules);
  options.reject_unknown("compress");

  if (!streaming && slab_given) {
    throw InvalidArgument(
        "slab applies to the streaming mode only "
        "(use `ocelot compress - ...`)");
  }
  if (!streaming && block_slabs_given && !request.adaptive) {
    throw InvalidArgument(
        "block_slabs applies to the streaming or adaptive modes only");
  }
  if (streaming && request.adaptive) {
    throw InvalidArgument(
        "policy=adaptive needs the whole field (chunked stdin input is "
        "not supported)");
  }

  // Observation never changes decisions: profiling/tracing only record
  // timings, so trace=/stats= leave the output bytes identical.
  if (!trace_path.empty()) {
    obs::start_tracing();
  } else if (show_stats) {
    obs::set_profiling(true);
  }
  const auto finish_obs = [&] {
    if (!trace_path.empty()) {
      obs::stop_tracing();
      obs::write_chrome_trace_file(trace_path);
      std::cerr << "wrote trace " << trace_path
                << " (load in Perfetto / chrome://tracing)\n";
    }
    if (show_stats) obs::write_stats_report(std::cout, /*json=*/false);
  };

  if (streaming) {
    if (!slab_given)
      throw InvalidArgument(
          "streaming compress needs slab=... (trailing dims of one slab)");
    const bool to_stdout = args[1] == "-";
    std::ofstream file_out;
    if (!to_stdout) {
      file_out.open(args[1], std::ios::binary);
      if (!file_out) throw Error("cannot write " + args[1]);
    }
    const StreamStats stats = Engine::shared().compress_stream(
        std::cin, to_stdout ? std::cout : file_out, request, slab_dims);
    // Status goes to stderr so a piped stdout stays pure container
    // bytes.
    std::cerr << "streamed " << shape_label(stats.shape) << " ("
              << fmt_bytes(static_cast<double>(stats.raw_bytes)) << ") -> "
              << (to_stdout ? std::string("<stdout>") : args[1]) << " in "
              << stats.blocks << " blocks, ratio "
              << fmt_double(stats.ratio(), 2) << "x ("
              << request.config.backend << ")\n";
    finish_obs();
    return 0;
  }

  const LoadedField field = load_field(read_file(args[0]));
  Bytes container;
  const EngineResult r = Engine::shared().compress(field.data, request,
                                                   container);
  write_file(args[1], container);
  if (request.adaptive) {
    std::cout << "compressed " << args[0] << " -> " << args[1] << "  ratio "
              << fmt_double(r.ratio(), 2) << "x  (abs eb " << r.abs_eb
              << ", adaptive over " << r.blocks
              << " blocks: " << to_string(r.adaptive) << ")\n";
  } else {
    std::cout << "compressed " << args[0] << " -> " << args[1] << "  ratio "
              << fmt_double(r.ratio(), 2) << "x  (abs eb " << r.abs_eb << ", "
              << request.config.backend << ")\n";
  }
  finish_obs();
  return 0;
}

int cmd_backends(const std::vector<std::string>& args) {
  if (!args.empty()) {
    std::cerr << "usage: ocelot backends\n";
    return 2;
  }
  TextTable table({"backend", "id", "description"});
  for (const BackendEntry& backend : backends()) {
    table.add_row({backend.name, std::to_string(backend.wire_id),
                   backend.description});
  }
  table.print(std::cout);

  // The entropy stages are the other half of the pipeline: any
  // backend's quantized-code sections can run through any stage
  // (compress entropy=<stage>, or entropy_stages=a,b with the advisor).
  std::cout << "\n";
  TextTable stages({"entropy stage", "id", "description"});
  for (const EntropyStageEntry* stage : entropy_stages()) {
    stages.add_row({stage->name, std::to_string(stage->wire_id),
                    stage->description});
  }
  stages.print(std::cout);
  return 0;
}

int cmd_decompress(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::cerr << "usage: ocelot decompress <in.ocz|in.ocb> <out.ocf>\n"
              << "       ocelot decompress <in|-> -   (raw float32 to "
                 "stdout, block by block)\n";
    return 2;
  }
  if (args[1] == "-") {
    // Streaming: raw floats to stdout, one block at a time — the full
    // field is never materialized.
    std::ifstream file_in;
    if (args[0] != "-") {
      file_in.open(args[0], std::ios::binary);
      if (!file_in) throw NotFound("cannot open " + args[0]);
    }
    const StreamStats stats =
        stream_decompress(args[0] == "-" ? std::cin : file_in, std::cout);
    std::cerr << "streamed " << shape_label(stats.shape) << " ("
              << fmt_bytes(static_cast<double>(stats.raw_bytes))
              << ") to <stdout> from " << stats.blocks << " blocks\n";
    return 0;
  }
  const Bytes blob = read_file(args[0]);
  // OCB1 containers decode block-parallel; bare OCZ1 blobs single-shot.
  const FloatArray data = Engine::shared().decompress(blob, 4);
  write_file(args[1], save_field("decompressed", data));
  std::cout << "decompressed " << args[0] << " -> " << args[1] << " ("
            << shape_label(data.shape()) << ")\n";
  return 0;
}

/// Per-block decision table: either recovered from an OCB1 container's
/// v1.1 index (every block's backend id is in the index, no payload
/// decode needed), or produced live by running the adaptive advisor
/// over a raw field.
int cmd_advise(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr
        << "usage: ocelot advise <in.ocb>   (decision table from the "
           "container index)\n"
        << "       ocelot advise <in.ocf> [eb=1e-3] [mode=rel|abs] "
           "[block_slabs=N] [backends=a,b] [entropy_stages=a,b] "
           "[eb_scales=1,0.5] [min_psnr=60] [stride=50] [workers=N]\n"
        << "       runs the online advisor and prints every block's "
           "backend / entropy-stage / error-bound choice\n";
    return 2;
  }
  const Bytes bytes = read_file(args[0]);

  if (is_block_container(bytes)) {
    const BlockContainerInfo info = read_block_index(bytes);
    if (!info.has_backend_ids) {
      std::cout << "legacy v1.0 container: per-block backend ids are not "
                   "recorded in the index\n";
      return 0;
    }
    const auto spans = plan_blocks(info.shape.dim(0), info.block_slabs);
    TextTable table(
        {"block", "slabs", "backend", "entropy", "payload", "ratio"});
    for (std::size_t b = 0; b < info.blocks.size(); ++b) {
      const double raw = static_cast<double>(
          block_shape(info.shape, spans[b]).size() * sizeof(float));
      table.add_row(
          {std::to_string(b),
           std::to_string(spans[b].slab_begin) + "+" +
               std::to_string(spans[b].slab_count),
           backend_label(info.blocks[b].backend_id),
           entropy_stage_label(info.blocks[b].entropy_id),
           fmt_bytes(static_cast<double>(info.blocks[b].size)),
           fmt_double(raw / static_cast<double>(info.blocks[b].size), 2)});
    }
    table.print(std::cout);
    return 0;
  }

  OptionSet options = OptionSet::from_args(
      std::vector<std::string>(args.begin() + 1, args.end()), "advise");
  // advise always runs the advisor: the fixed-path keys (backend choice,
  // entropy override, policy) are not accepted here, matching the keys
  // the pre-facade loop understood.
  for (const char* key : {"backend", "pipeline", "entropy", "policy"}) {
    if (options.has(key))
      throw InvalidArgument(std::string("unknown advise option: ") + key);
  }
  CompressionOptionRules rules;
  rules.allow_policy = false;
  rules.default_adaptive = true;
  const EngineRequest request = parse_compression_options(options, rules);
  options.reject_unknown("advise");

  const LoadedField field = load_field(bytes);
  AdvisorPolicy policy(request.adaptive_options);
  Bytes container;
  const EngineResult r =
      Engine::shared().compress(field.data, request, container, &policy);

  TextTable table(
      {"block", "backend", "entropy", "abs eb", "pred ratio", "ratio"});
  for (const AdaptiveDecisionRecord& record : policy.log()) {
    table.add_row({std::to_string(record.block), record.backend,
                   record.entropy, fmt_double(record.abs_eb, 6),
                   fmt_double(record.predicted_ratio, 2),
                   fmt_double(record.observed_ratio, 2)});
  }
  table.print(std::cout);
  std::cout << "\naggregate ratio " << fmt_double(r.ratio(), 2) << "x over "
            << r.blocks << " blocks (" << to_string(policy.summary())
            << ")\n";
  return 0;
}

/// `[d0,d1,...]` — the machine-readable shape form.
std::string shape_json(const Shape& shape) {
  std::string out = "[";
  for (int d = 0; d < shape.rank(); ++d) {
    if (d > 0) out += ',';
    out += std::to_string(shape.dim(d));
  }
  out += ']';
  return out;
}

/// `"..."` with the two JSON-significant characters escaped (names
/// here are app/field identifiers, never control characters).
std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2 ||
      (args.size() == 2 && args[1] != "json=1")) {
    std::cerr << "usage: ocelot info <file> [json=1]\n";
    return 2;
  }
  const bool json = args.size() == 2;
  const Bytes bytes = read_file(args[0]);
  if (bytes.size() >= 4 && bytes[0] == 'O' && bytes[1] == 'C' &&
      bytes[2] == 'F' && bytes[3] == '1') {
    const LoadedField field = load_field(bytes);
    const ValueSummary s = summarize(field.data.values());
    if (json) {
      std::cout << "{\"format\":\"ocf1\",\"name\":" << json_quote(field.name)
                << ",\"shape\":" << shape_json(field.data.shape())
                << ",\"raw_bytes\":" << field.data.byte_size()
                << ",\"min\":" << s.min << ",\"max\":" << s.max
                << ",\"mean\":" << s.mean << ",\"stddev\":" << s.stddev
                << "}\n";
      return 0;
    }
    std::cout << "OCF1 raw field: name=" << field.name << " shape="
              << shape_label(field.data.shape()) << " ("
              << fmt_bytes(static_cast<double>(field.data.byte_size()))
              << ")\n";
    std::cout << "  min " << s.min << "  max " << s.max << "  mean "
              << s.mean << "  stddev " << s.stddev << "\n";
    return 0;
  }
  if (is_block_container(bytes)) {
    const BlockContainerInfo info = read_block_index(bytes);
    std::size_t payload = 0;
    for (const auto& block : info.blocks) payload += block.size;
    const std::size_t raw = info.shape.size() * sizeof(float);
    // v1.1 indexes name every block's compressor (v1.2 adds its
    // entropy stage); summarize both mixes.
    std::map<std::uint8_t, std::size_t> counts;
    std::map<std::uint8_t, std::size_t> entropy_counts;
    std::string mix;
    std::string entropy_mix;
    if (info.has_backend_ids) {
      for (const auto& block : info.blocks) ++counts[block.backend_id];
      for (const auto& [id, count] : counts) {
        if (!mix.empty()) mix += ' ';
        mix += backend_label(id) + ':' + std::to_string(count);
      }
      for (const auto& block : info.blocks)
        ++entropy_counts[block.entropy_id];
      for (const auto& [id, count] : entropy_counts) {
        if (!entropy_mix.empty()) entropy_mix += ' ';
        entropy_mix += entropy_stage_label(id) + ':' + std::to_string(count);
      }
    }
    if (json) {
      std::cout << "{\"format\":\"ocb1\",\"version\":\""
                << (info.has_entropy_ids  ? "1.2"
                    : info.has_backend_ids ? "1.1"
                                           : "1.0")
                << "\",\"shape\":" << shape_json(info.shape)
                << ",\"block_slabs\":" << info.block_slabs
                << ",\"compressed_bytes\":" << bytes.size()
                << ",\"payload_bytes\":" << payload
                << ",\"raw_bytes\":" << raw << ",\"ratio\":"
                << static_cast<double>(raw) /
                       static_cast<double>(bytes.size())
                << ",\"backend_mix\":{";
      bool first = true;
      for (const auto& [id, count] : counts) {
        if (!first) std::cout << ",";
        first = false;
        std::cout << json_quote(backend_label(id)) << ":" << count;
      }
      std::cout << "},\"entropy_mix\":{";
      first = true;
      for (const auto& [id, count] : entropy_counts) {
        if (!first) std::cout << ",";
        first = false;
        std::cout << json_quote(entropy_stage_label(id)) << ":" << count;
      }
      std::cout << "},\"blocks\":[";
      for (std::size_t b = 0; b < info.blocks.size(); ++b) {
        if (b > 0) std::cout << ",";
        std::cout << "{\"offset\":" << info.blocks[b].offset
                  << ",\"size\":" << info.blocks[b].size;
        if (info.has_backend_ids) {
          std::cout << ",\"backend\":"
                    << json_quote(backend_label(info.blocks[b].backend_id))
                    << ",\"entropy\":"
                    << json_quote(
                           entropy_stage_label(info.blocks[b].entropy_id));
        }
        std::cout << "}";
      }
      std::cout << "]}\n";
      return 0;
    }
    std::cout << "OCB1 block container: shape=" << shape_label(info.shape)
              << " blocks=" << info.blocks.size() << " block_slabs="
              << info.block_slabs
              << (mix.empty() ? std::string(" (v1.0 index)")
                              : " backends " + mix)
              << (entropy_mix.empty() ? std::string()
                                      : " entropy " + entropy_mix)
              << "\n"
              << "  " << fmt_bytes(static_cast<double>(bytes.size()))
              << " compressed ("
              << fmt_bytes(static_cast<double>(bytes.size() - payload))
              << " index) / " << fmt_bytes(static_cast<double>(raw))
              << " raw ("
              << fmt_double(static_cast<double>(raw) /
                                static_cast<double>(bytes.size()),
                            2)
              << "x)\n";
    return 0;
  }
  const BlobInfo info = inspect_blob(bytes);
  // Mirrors the writer: a non-default entropy stage is exactly what
  // switches the blob magic to OCZ2.
  const bool ocz2 = info.entropy_id != kEntropyHuffmanId;
  if (json) {
    std::cout << "{\"format\":\"" << (ocz2 ? "ocz2" : "ocz1")
              << "\",\"backend\":" << json_quote(info.backend)
              << ",\"backend_id\":" << static_cast<int>(info.backend_id)
              << ",\"entropy\":" << json_quote(info.entropy)
              << ",\"entropy_id\":" << static_cast<int>(info.entropy_id)
              << ",\"dtype\":\"" << (info.is_double ? "f64" : "f32")
              << "\",\"shape\":" << shape_json(info.shape)
              << ",\"abs_eb\":" << info.abs_eb
              << ",\"compressed_bytes\":" << info.compressed_bytes
              << ",\"raw_bytes\":" << info.raw_bytes << ",\"ratio\":"
              << static_cast<double>(info.raw_bytes) /
                     static_cast<double>(info.compressed_bytes)
              << "}\n";
    return 0;
  }
  std::cout << (ocz2 ? "OCZ2" : "OCZ1")
            << " compressed blob: backend=" << info.backend
            << " entropy=" << info.entropy
            << " dtype=" << (info.is_double ? "f64" : "f32") << " shape="
            << shape_label(info.shape) << "\n"
            << "  abs eb " << info.abs_eb << ", "
            << fmt_bytes(static_cast<double>(info.compressed_bytes))
            << " compressed / "
            << fmt_bytes(static_cast<double>(info.raw_bytes)) << " raw ("
            << fmt_double(static_cast<double>(info.raw_bytes) /
                              static_cast<double>(info.compressed_bytes),
                          2)
            << "x)\n";
  return 0;
}

/// Profiles one in-memory (de)compression of the given file and
/// prints the per-stage breakdown. OCF1 inputs are compressed (with
/// the usual compression knobs); OCZ1/OCB1 inputs are decompressed.
int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: ocelot stats <in.ocf> [json=1] [trace=out.json] "
                 "[eb=1e-3] [mode=rel|abs] [backend=sz3] [policy=adaptive] "
                 "[block_slabs=N] [workers=N] [backends=a,b] "
                 "[eb_scales=1,0.5] [min_psnr=60] [stride=50]\n"
              << "       ocelot stats <in.ocz|in.ocb> [json=1] "
                 "[trace=out.json] [workers=N]\n"
              << "       profiles one in-memory run and prints stage "
                 "timings, counters, histograms, and pool stats\n";
    return 2;
  }
  OptionSet options = OptionSet::from_args(
      std::vector<std::string>(args.begin() + 1, args.end()), "stats");
  // stats did not take an entropy override pre-facade; keep that
  // surface (the engine would otherwise consume it silently).
  if (options.has("entropy")) {
    throw InvalidArgument("unknown stats option: entropy");
  }
  const bool json = options.get_string("json") == "1";
  const std::string trace_path = options.get_string("trace");
  if (options.has("trace") && trace_path.empty()) {
    throw InvalidArgument("trace needs a file path");
  }
  const EngineRequest request = parse_compression_options(options);
  options.reject_unknown("stats");

  const Bytes bytes = read_file(args[0]);
  if (!trace_path.empty()) {
    obs::start_tracing();
  } else {
    obs::set_profiling(true);
  }
  obs::reset_metrics();  // report covers exactly this run

  const bool is_field = bytes.size() >= 4 && bytes[0] == 'O' &&
                        bytes[1] == 'C' && bytes[2] == 'F' && bytes[3] == '1';
  if (is_field) {
    const LoadedField field = load_field(bytes);
    Bytes scratch;
    (void)Engine::shared().compress(field.data, request, scratch);
  } else {
    (void)Engine::shared().decompress(bytes, request.workers);
  }

  if (!trace_path.empty()) {
    obs::stop_tracing();
    obs::write_chrome_trace_file(trace_path);
    std::cerr << "wrote trace " << trace_path
              << " (load in Perfetto / chrome://tracing)\n";
  }
  obs::write_stats_report(std::cout, json);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::cerr << "usage: ocelot diff <a.ocf> <b.ocf>\n";
    return 2;
  }
  const LoadedField a = load_field(read_file(args[0]));
  const LoadedField b = load_field(read_file(args[1]));
  if (!(a.data.shape() == b.data.shape())) {
    std::cerr << "shape mismatch: " << shape_label(a.data.shape()) << " vs "
              << shape_label(b.data.shape()) << "\n";
    return 1;
  }
  std::cout << "max |error| = "
            << max_abs_error<float>(a.data.values(), b.data.values())
            << "\nRMSE        = "
            << rmse<float>(a.data.values(), b.data.values())
            << "\nPSNR        = "
            << fmt_double(psnr<float>(a.data.values(), b.data.values()), 2)
            << " dB\n";
  return 0;
}

TransferMode parse_mode(const std::string& name) {
  if (name == "np" || name == "direct") return TransferMode::kDirect;
  if (name == "cp" || name == "compressed")
    return TransferMode::kCompressedPerFile;
  if (name == "op" || name == "grouped")
    return TransferMode::kCompressedGrouped;
  throw InvalidArgument("unknown mode: " + name + " (expected np|cp|op)");
}

std::string mode_tag(TransferMode mode) {
  switch (mode) {
    case TransferMode::kDirect:
      return "np";
    case TransferMode::kCompressedPerFile:
      return "cp";
    case TransferMode::kCompressedGrouped:
      return "op";
  }
  return "??";
}

/// Parses one campaign spec of the form
///   app=RTM,src=Anvil,dst=Cori,mode=op,at=0,prio=0,ratio=10
/// (app is required; everything else has defaults).
CampaignSpec parse_campaign(const std::string& arg) {
  OptionSet options = OptionSet::from_args(split(arg, ','), "campaign");
  CampaignSpec spec;
  const std::string app = options.get_string("app");
  spec.config.src = options.get_string("src", spec.config.src);
  spec.config.dst = options.get_string("dst", spec.config.dst);
  if (options.has("mode")) spec.mode = parse_mode(options.get_string("mode"));
  spec.submit_time = options.get_double("at", spec.submit_time);
  // Priorities and node counts are ints: a larger value fails by name
  // instead of wrapping.
  const auto narrow = [](const std::string& key, std::uint64_t v) {
    if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
      throw InvalidArgument("bad " + key + " value: " + std::to_string(v));
    return static_cast<int>(v);
  };
  spec.priority = narrow("prio", options.get_uint("prio", 0));
  spec.config.compression_ratio = options.get_double("ratio", 10.0);
  spec.config.compress_nodes = narrow(
      "nodes", options.get_count("nodes", spec.config.compress_nodes));
  spec.config.adaptive = options.get_flag("adaptive", spec.config.adaptive);
  spec.name = options.get_string("name");
  options.reject_unknown("campaign", "key");
  if (app.empty()) throw InvalidArgument("campaign needs app=...");
  spec.inventory = paper_inventory(app);
  spec.config.rates = paper_compute_rates(app);
  if (spec.name.empty()) {
    spec.name = app + "/" + mode_tag(spec.mode);
  }
  return spec;
}

/// Fleet mode: `ocelot simulate campaigns=N [seed=] [window=] ...`
/// generates a seeded campaign set and runs it through the
/// orchestrator at scale (no isolated baseline — at thousands of
/// campaigns the per-campaign baseline is the scaling bench's job).
int cmd_simulate_fleet(const std::vector<std::string>& args) {
  OptionSet options = OptionSet::from_args(args, "fleet");
  CampaignSetConfig config;
  config.count = options.get_count("campaigns", config.count);
  config.seed = options.get_uint("seed", config.seed);
  config.arrival_window_s =
      options.get_double("window", config.arrival_window_s);
  config.profile = options.get_string("profile", config.profile);
  config.inventory_stride =
      options.get_count("stride", config.inventory_stride);
  const bool flap = options.get_flag("flap", false);
  options.reject_unknown("fleet", "key");

  std::vector<CampaignSpec> specs = generate_campaign_set(config);
  Orchestrator orch(fleet_pool_options());
  for (CampaignSpec& spec : specs) orch.add_campaign(std::move(spec));
  if (flap) {
    sim::LinkFlapConfig flap_config;
    flap_config.seed = config.seed;
    flap_config.mean_up_seconds = 60.0;
    flap_config.mean_down_seconds = 15.0;
    flap_config.degraded_fraction = 0.25;
    orch.add_link_flap("Anvil", "Cori", flap_config);
  }

  Timer timer;
  const OrchestratorReport report = orch.run();
  const double wall = timer.seconds();

  std::cout << "fleet " << report.campaigns.size() << " campaigns seed "
            << config.seed << " profile " << config.profile << "\n";
  std::cout << "makespan " << fmt_seconds(report.makespan) << ", "
            << report.events_executed << " events\n";
  // Wall-clock timing goes to stderr: stdout of the same invocation
  // must stay byte-identical run to run (the determinism contract).
  std::cerr << "wall " << fmt_double(wall, 3) << " s ("
            << fmt_double(static_cast<double>(report.events_executed) /
                              std::max(wall, 1e-9),
                          0)
            << " events/s)\n";
  for (const auto& [name, link] : report.links) {
    std::cout << "link " << name << ": peak " << link.stats.peak_flows
              << " flows, " << link.stats.flows_completed << " completed, "
              << fmt_bytes(link.stats.units_delivered) << " over "
              << fmt_seconds(link.stats.busy_seconds) << " busy\n";
  }
  for (const auto& [name, pool] : report.pools) {
    std::cout << "pool " << name << ": " << pool.stats.grants
              << " grants, peak " << pool.stats.peak_nodes_in_use
              << " nodes\n";
  }
  if (flap) {
    std::cout << "link flaps: " << orch.link_flaps().front()->flaps()
              << " transitions\n";
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint(report)));
  std::cout << "fingerprint " << fp << "\n";
  return 0;
}

int cmd_simulate(const std::vector<std::string>& raw_args) {
  for (const std::string& arg : raw_args) {
    if (arg.rfind("campaigns=", 0) == 0) return cmd_simulate_fleet(raw_args);
  }
  // trace=out.json records campaign spans on the virtual timeline;
  // strip it before campaign parsing.
  std::string trace_path;
  std::vector<std::string> args;
  for (const std::string& arg : raw_args) {
    if (arg.rfind("trace=", 0) == 0) {
      trace_path = arg.substr(6);
      if (trace_path.empty()) throw InvalidArgument("trace needs a file path");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<CampaignSpec> specs;
  if (args.size() == 1 && args[0] == "--demo") {
    specs.push_back(parse_campaign("app=Miranda,mode=op,at=0,prio=1"));
    specs.push_back(parse_campaign("app=RTM,mode=cp,at=0"));
    specs.push_back(parse_campaign("app=CESM,mode=np,at=30"));
    specs.push_back(parse_campaign("app=Miranda,mode=np,at=60,prio=2"));
  } else if (!args.empty()) {
    for (const std::string& arg : args) {
      specs.push_back(parse_campaign(arg));
    }
  } else {
    std::cerr
        << "usage: ocelot simulate --demo\n"
        << "       ocelot simulate app=RTM[,src=Anvil][,dst=Cori]"
           "[,mode=np|cp|op][,at=0][,prio=0][,ratio=10][,nodes=16]"
           "[,adaptive=1] ...\n"
        << "       ocelot simulate campaigns=N [seed=42] [window=120]"
           " [profile=corridor|mixed] [stride=16] [flap=0|1]\n"
        << "Runs the campaigns concurrently over shared links, node\n"
        << "pools and funcX endpoints, then compares against isolated\n"
        << "runs of the same campaigns.\n"
        << "trace=out.json writes the shared run's campaign spans on\n"
        << "the virtual timeline (Perfetto-loadable).\n";
    return 2;
  }

  // The isolated baseline runs before tracing starts so the trace
  // holds exactly one span set per campaign (the contended run).
  const OrchestratorReport isolated = run_campaigns(specs, /*isolated=*/true);
  if (!trace_path.empty()) obs::start_tracing();
  const OrchestratorReport report = run_campaigns(specs);
  if (!trace_path.empty()) {
    obs::stop_tracing();
    obs::write_chrome_trace_file(trace_path);
    std::cerr << "wrote trace " << trace_path
              << " (load in Perfetto / chrome://tracing)\n";
  }

  TextTable table({"campaign", "mode", "submit", "total", "transfer",
                   "stretch", "node wait", "finish"});
  for (std::size_t i = 0; i < report.campaigns.size(); ++i) {
    const CampaignOutcome& c = report.campaigns[i];
    table.add_row({c.name, to_string(c.mode), fmt_seconds(c.submit_time),
                   fmt_seconds(c.report.total_seconds),
                   fmt_seconds(c.report.transfer_seconds),
                   fmt_double(c.transfer_stretch, 3) + "x",
                   fmt_seconds(c.report.node_wait_seconds),
                   fmt_seconds(c.finish_time)});
  }
  table.print(std::cout);

  std::cout << "\n";
  for (const auto& [name, link] : report.links) {
    std::cout << "link " << name << ": peak " << link.stats.peak_flows
              << " flows, " << fmt_bytes(link.stats.units_delivered)
              << " over " << fmt_seconds(link.stats.busy_seconds)
              << " busy\n";
  }
  for (const auto& [name, pool] : report.pools) {
    std::cout << "pool " << name << ": " << pool.stats.grants
              << " grants, peak " << pool.stats.peak_nodes_in_use << "/"
              << pool.total_nodes << " nodes, queue wait "
              << fmt_seconds(pool.stats.total_wait_seconds) << "\n";
  }
  std::cout << "funcX: " << report.faas_cold_starts << " cold / "
            << report.faas_warm_hits << " warm\n";
  std::cout << "makespan " << fmt_seconds(report.makespan)
            << " (isolated " << fmt_seconds(isolated.makespan) << "), "
            << report.events_executed << " events\n";
  return 0;
}

/// Parses a port number: 0 is a valid value (ephemeral bind), which
/// get_count rejects by design.
int parse_port(const std::string& value) {
  const std::uint64_t v = parse_uint_option("port", value);
  if (v > 65535) throw InvalidArgument("bad port value: " + value);
  return static_cast<int>(v);
}

int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr
        << "usage: ocelot serve unix=/path/to.sock [port=0] [workers=N] "
           "[max_frame_mb=256] [quota_requests=64] [quota_mb=256] "
           "[tenants=name:weight[:max_queued[:max_mb]],...]\n"
        << "       runs ocelotd: a multi-tenant compression daemon "
           "speaking OCR1 frames\n"
        << "       port=0 binds an ephemeral 127.0.0.1 port (printed on "
           "start); omit port for unix-only\n"
        << "       SIGTERM/SIGINT drains gracefully: queued and in-flight "
           "requests finish, then connections close\n";
    return 2;
  }
  OptionSet options = OptionSet::from_args(args, "serve");
  server::DaemonConfig config;
  config.unix_path = options.get_string("unix");
  if (const auto v = options.take("port")) config.tcp_port = parse_port(*v);
  config.workers = options.get_count("workers", 0);
  config.max_frame_bytes =
      options.get_count("max_frame_mb", config.max_frame_bytes >> 20) << 20;
  config.default_quota.max_queued =
      options.get_count("quota_requests", config.default_quota.max_queued);
  config.default_quota.max_queued_bytes =
      options.get_count("quota_mb", config.default_quota.max_queued_bytes >> 20)
      << 20;
  for (const std::string& spec : options.get_list("tenants")) {
    if (spec.empty()) continue;
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.size() < 2 || parts.size() > 4) {
      throw InvalidArgument("bad tenants entry: " + spec +
                            " (expected name:weight[:max_queued[:max_mb]])");
    }
    server::TenantQuota quota = config.default_quota;
    quota.weight = parse_double_option("tenants", parts[1]);
    if (parts.size() > 2)
      quota.max_queued = parse_count_option("tenants", parts[2]);
    if (parts.size() > 3)
      quota.max_queued_bytes = parse_count_option("tenants", parts[3]) << 20;
    config.tenant_quotas.emplace_back(parts[0], quota);
  }
  options.reject_unknown("serve");
  if (config.unix_path.empty() && config.tcp_port < 0) {
    throw InvalidArgument("serve needs unix=... and/or port=...");
  }

  // Block the termination signals before start() so every daemon
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGINT);
  sigaddset(&term_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  server::Daemon daemon(config);
  daemon.start();
  std::cerr << "ocelotd listening";
  if (!config.unix_path.empty())
    std::cerr << " on unix:" << config.unix_path;
  if (daemon.tcp_port() >= 0)
    std::cerr << " on 127.0.0.1:" << daemon.tcp_port();
  std::cerr << " (" << Engine::resolve_workers(config.workers)
            << " workers)\n";

  int sig = 0;
  sigwait(&term_signals, &sig);
  std::cerr << "received " << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
            << ", draining\n";
  daemon.shutdown();

  const server::Daemon::Stats stats = daemon.stats();
  std::cerr << "served " << stats.requests_ok << " requests ("
            << stats.requests_rejected << " rejected, "
            << stats.requests_error << " failed) over "
            << stats.connections << " connections\n";
  return 0;
}

int cmd_client(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr
        << "usage: ocelot client connect=<unix:/path|host:port> compress "
           "<in.ocf> <out.ocz|out.ocb> [tenant=cli] [eb=...] [key=value...]\n"
        << "       ocelot client connect=... decompress <in.ocz|in.ocb> "
           "<out.ocf> [tenant=cli]\n"
        << "       ocelot client connect=... ping\n"
        << "       compression options are forwarded verbatim in the "
           "request frame (same keys as `ocelot compress`)\n";
    return 2;
  }

  // Positional args (verb and file paths) carry no '='; everything
  // else is key=value, with connect/tenant consumed locally and the
  // rest forwarded to the daemon in the request's option field.
  std::vector<std::string> positional;
  std::vector<std::string> kvs;
  for (const std::string& arg : args) {
    (arg.find('=') == std::string::npos ? positional : kvs).push_back(arg);
  }
  OptionSet options = OptionSet::from_args(kvs, "client");
  const std::string endpoint = options.get_string("connect");
  if (endpoint.empty()) {
    throw InvalidArgument("client needs connect=<unix:/path|host:port>");
  }
  const std::string tenant = options.get_string("tenant", "cli");

  const auto connect = [&] {
    if (endpoint.rfind("unix:", 0) == 0)
      return server::Client::connect_unix(endpoint.substr(5));
    if (!endpoint.empty() && endpoint[0] == '/')
      return server::Client::connect_unix(endpoint);
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      throw InvalidArgument("bad connect value: " + endpoint +
                            " (expected unix:/path or host:port)");
    }
    return server::Client::connect_tcp(endpoint.substr(0, colon),
                                       parse_port(endpoint.substr(colon + 1)));
  };

  const std::string verb = positional.empty() ? "" : positional[0];
  if (verb == "ping") {
    server::Client client = connect();
    client.ping();
    std::cout << "pong from " << endpoint << "\n";
    return 0;
  }
  if (verb == "compress") {
    if (positional.size() != 3)
      throw InvalidArgument("client compress needs <in.ocf> <out>");
    const Bytes field_bytes = read_file(positional[1]);
    server::Client client = connect();
    std::string stats_line;
    // Unconsumed keys only: connect/tenant stay local, the compression
    // knobs travel; the daemon re-parses and rejects unknowns.
    const Bytes blob = client.compress(
        tenant, field_bytes, options.canonical_line(/*unconsumed_only=*/true),
        &stats_line);
    write_file(positional[2], blob);
    std::cout << "compressed " << positional[1] << " -> " << positional[2]
              << " via " << endpoint << "  (" << stats_line << ")\n";
    return 0;
  }
  if (verb == "decompress") {
    if (positional.size() != 3)
      throw InvalidArgument("client decompress needs <in> <out.ocf>");
    options.reject_unknown("client");
    const Bytes blob = read_file(positional[1]);
    server::Client client = connect();
    const Bytes field_bytes = client.decompress(tenant, blob);
    write_file(positional[2], field_bytes);
    std::cout << "decompressed " << positional[1] << " -> " << positional[2]
              << " via " << endpoint << "\n";
    return 0;
  }
  throw InvalidArgument("unknown client verb: " +
                        (verb.empty() ? std::string("(none)") : verb) +
                        " (expected compress|decompress|ping)");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "ocelot — error-bounded lossy compression toolkit\n"
              << "commands: generate, compress, decompress, advise, info, "
                 "stats, backends, diff, simulate, serve, client\n";
    return 2;
  }
  try {
    const std::string cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "generate") return cmd_generate(rest);
    if (cmd == "compress") return cmd_compress(rest);
    if (cmd == "decompress") return cmd_decompress(rest);
    if (cmd == "advise") return cmd_advise(rest);
    if (cmd == "info") return cmd_info(rest);
    if (cmd == "stats") return cmd_stats(rest);
    if (cmd == "backends") return cmd_backends(rest);
    if (cmd == "diff") return cmd_diff(rest);
    if (cmd == "simulate") return cmd_simulate(rest);
    if (cmd == "serve") return cmd_serve(rest);
    if (cmd == "client") return cmd_client(rest);
    std::cerr << "unknown command: " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
