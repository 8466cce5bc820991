/**
 * @file
 * perfbench_layers — the benchmark's in-process view of an anvilc
 * invocation.  It calls the public entry points of each layer that
 * anvilc crosses (the same calls, in the same order, on the same
 * input) and times every call with std::chrono::steady_clock, so the
 * benchmark can split an invocation's wall time by layer without any
 * probe inside the program.
 *
 * Subcommands (each prints one JSON object on stdout):
 *
 *   sources <dir>
 *       Write every designs::anvil*Source() to <dir>/<name>.anvil.
 *   replay <file.anvil> [--netlist] [--emit]
 *       Re-run compileAnvil's pipeline step by step (parse, per-proc
 *       elaborate at unroll 2 + checkProc, then per-proc elaborate at
 *       unroll 1 + optimizeEventGraph + generateRtl, then the SV
 *       printer).  --netlist adds the rtl::Netlist build of the top
 *       module, --emit the compiled-sim kernel emitter.
 *   merge <stream>...
 *       Feed anvil-events streams into obs::Merger and build every
 *       merged report anvilc --farm prints.
 *   host
 *       The JIT compiler path codegen::jitCompilerPath() resolves.
 *
 * Exit codes: 0 ok; 1 the input failed (replay: compile errors are
 * still reported, with "ok": false); 2 usage.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "codegen/rtl_gen.h"
#include "codegen/sv_printer.h"
#include "designs/designs.h"
#include "ir/elaborate.h"
#include "ir/optimize.h"
#include "lang/parser.h"
#include "obs/merge.h"
#include "rtl/netlist.h"
#include "types/checker.h"

using namespace anvil;

namespace {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
};

/** Spans relative to the recorder's construction, kept in memory
 *  and printed once. */
class Recorder
{
  public:
    /** Time `fn` as a span named `name` under `parent`; returns the
     *  span's index (usable as a parent while `fn` runs). */
    int span(const std::string &name, int parent,
             const std::function<void(int)> &fn)
    {
        int idx = static_cast<int>(_spans.size());
        _spans.push_back({name, now(), 0, parent});
        fn(idx);
        _spans[static_cast<size_t>(idx)].end_ns = now();
        return idx;
    }

    std::string json() const
    {
        std::ostringstream os;
        os << "[";
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns
               << ",\"parent\":" << s.parent << "}";
        }
        os << "]";
        return os.str();
    }

  private:
    int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _t0).count();
    }

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
};

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

/** compileAnvil's process order: spawned children first. */
std::vector<const ProcDef *>
spawnOrder(const Program &prog, DiagEngine &diags)
{
    std::vector<const ProcDef *> order;
    std::set<std::string> done;
    std::set<std::string> visiting;
    std::function<void(const ProcDef &)> visit = [&](const ProcDef &p) {
        if (done.count(p.name))
            return;
        if (!visiting.insert(p.name).second) {
            diags.error("recursive spawn cycle", p.loc);
            return;
        }
        for (const auto &s : p.spawns)
            if (const ProcDef *child = prog.findProc(s.proc_name))
                visit(*child);
            else
                diags.error("spawn of unknown process", s.loc);
        visiting.erase(p.name);
        done.insert(p.name);
        order.push_back(&p);
    };
    for (const auto &[name, p] : prog.procs)
        visit(p);
    return order;
}

int
cmdSources(const std::string &dir)
{
    const std::pair<const char *, std::string> sources[] = {
        {"fifo", designs::anvilFifoSource()},
        {"spill_reg", designs::anvilSpillRegSource()},
        {"stream_fifo", designs::anvilStreamFifoSource()},
        {"tlb", designs::anvilTlbSource()},
        {"ptw", designs::anvilPtwSource()},
        {"aes", designs::anvilAesSource()},
        {"axi_demux", designs::anvilAxiDemuxSource()},
        {"axi_mux", designs::anvilAxiMuxSource()},
        {"pipelined_alu", designs::anvilPipelinedAluSource()},
        {"systolic", designs::anvilSystolicSource()},
        {"top_unsafe", designs::anvilTopUnsafeSource()},
        {"top_safe", designs::anvilTopSafeSource()},
        {"encrypt", designs::anvilEncryptSource()},
        {"listing1", designs::anvilListing1Source()},
        {"listing2", designs::anvilListing2Source()},
    };
    printf("{\"sources\":[");
    bool first = true;
    for (const auto &[name, text] : sources) {
        std::string path = dir + "/" + name + ".anvil";
        std::ofstream os(path, std::ios::binary);
        os << text;
        os.flush();
        if (!os.good()) {
            fprintf(stderr, "perfbench_layers: cannot write %s\n",
                    path.c_str());
            return 1;
        }
        printf("%s\"%s\"", first ? "" : ",", name);
        first = false;
    }
    printf("]}\n");
    return 0;
}

int
cmdReplay(const std::string &path, bool netlist, bool emit)
{
    std::string source;
    if (!readFile(path, &source)) {
        fprintf(stderr, "perfbench_layers: cannot read %s\n",
                path.c_str());
        return 1;
    }

    Recorder rec;
    DiagEngine diags;
    Program prog;
    std::map<std::string, rtl::ModulePtr> modules;
    std::string top;
    long events_after_opt = 0;
    size_t sv_bytes = 0;
    bool front_ok = true;

    rec.span("compile", -1, [&](int root) {
        rec.span("lang.parse", root,
                 [&](int) { prog = parseAnvil(source, diags); });
        if (diags.hasErrors()) {
            front_ok = false;
            return;
        }
        std::vector<const ProcDef *> order = spawnOrder(prog, diags);
        if (diags.hasErrors()) {
            front_ok = false;
            return;
        }
        for (const ProcDef *proc : order) {
            ProcIR check_ir;
            rec.span("ir.elaborate", root, [&](int) {
                check_ir = elaborateProc(prog, *proc, diags, 2);
            });
            rec.span("types.check", root,
                     [&](int) { checkProc(check_ir, diags); });
        }
        DiagEngine gen_diags;
        for (const ProcDef *proc : order) {
            ProcIR gen_ir;
            rec.span("ir.elaborate", root, [&](int) {
                gen_ir = elaborateProc(prog, *proc, gen_diags, 1);
            });
            rec.span("ir.optimize", root, [&](int) {
                for (auto &t : gen_ir.threads)
                    events_after_opt += optimizeEventGraph(t->graph).after;
            });
            rec.span("codegen.rtlgen", root, [&](int) {
                modules[proc->name] =
                    generateRtl(gen_ir, modules, gen_diags);
            });
        }
        if (gen_diags.hasErrors())
            front_ok = false;
        top = order.empty() ? "" : order.back()->name;
        if (modules.count(top))
            rec.span("codegen.sv", root, [&](int) {
                sv_bytes =
                    printSystemVerilogHierarchy(*modules[top]).size();
            });
    });
    bool ok = front_ok && !diags.hasErrors();

    size_t nets = 0, levels = 0, kernel_bytes = 0;
    if ((netlist || emit) && modules.count(top)) {
        std::unique_ptr<rtl::Netlist> nl;
        rec.span("rtl.netlist", -1, [&](int) {
            nl = std::make_unique<rtl::Netlist>(*modules[top]);
        });
        nets = nl->nets().size();
        levels = nl->levelCount();
        if (emit)
            rec.span("codegen.emit", -1, [&](int) {
                kernel_bytes = codegen::emitCppKernel(*nl, top).size();
            });
    }

    printf("{\"ok\":%s,\"top\":\"%s\",\"spans\":%s,\"counts\":{"
           "\"ir.events_after_opt\":%ld,\"codegen.sv_bytes\":%zu,"
           "\"rtl.nets\":%zu,\"rtl.levels\":%zu,"
           "\"codegen.kernel_bytes\":%zu}}\n",
           ok ? "true" : "false", top.c_str(), rec.json().c_str(),
           events_after_opt, sv_bytes, nets, levels, kernel_bytes);
    return 0;
}

int
cmdMerge(const std::vector<std::string> &paths)
{
    size_t bytes = 0;
    for (const std::string &p : paths) {
        std::ifstream in(p, std::ios::binary | std::ios::ate);
        if (!in) {
            fprintf(stderr, "perfbench_layers: cannot read %s\n",
                    p.c_str());
            return 1;
        }
        bytes += static_cast<size_t>(in.tellg());
    }
    Clock::time_point t0 = Clock::now();
    obs::Merger merger;
    obs::Merger::Totals totals;
    size_t report_bytes = 0;
    try {
        for (const std::string &p : paths)
            merger.addStreamFile(p);
        totals = merger.totals();
        if (merger.hasCoverage())
            report_bytes += merger.coverage().summaryJson().size() +
                            merger.coverage().report().size();
        report_bytes += merger.triageReport().size() +
                        merger.metricsJson().size();
    } catch (const std::exception &e) {
        fprintf(stderr, "perfbench_layers: merge: %s\n", e.what());
        return 1;
    }
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0).count();
    printf("{\"merge_ns\":%lld,\"bytes\":%zu,\"cycles\":%llu,"
           "\"toggles\":%llu,\"workers\":%zu,\"report_bytes\":%zu}\n",
           (long long)ns, bytes, (unsigned long long)totals.cycles,
           (unsigned long long)totals.toggles, totals.workers,
           report_bytes);
    return 0;
}

int
usage()
{
    fprintf(stderr,
            "usage: perfbench_layers sources <dir>\n"
            "       perfbench_layers replay <file.anvil> [--netlist] "
            "[--emit]\n"
            "       perfbench_layers merge <stream>...\n"
            "       perfbench_layers host\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "sources" && args.size() == 1)
        return cmdSources(args[0]);
    if (cmd == "replay" && !args.empty()) {
        bool netlist = false, emit = false;
        for (size_t i = 1; i < args.size(); ++i) {
            if (args[i] == "--netlist")
                netlist = true;
            else if (args[i] == "--emit")
                emit = true;
            else
                return usage();
        }
        return cmdReplay(args[0], netlist, emit);
    }
    if (cmd == "merge" && !args.empty())
        return cmdMerge(args);
    if (cmd == "host" && args.empty()) {
        printf("{\"jit_compiler\":\"%s\"}\n",
               codegen::jitCompilerPath().c_str());
        return 0;
    }
    return usage();
}
