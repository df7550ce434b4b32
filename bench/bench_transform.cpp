// E6 -- the §4 pipeline: per-step instance blow-up and optimum bookkeeping
// on every family.
//
// Expected shape (paper §4): §4.2/§4.4/§4.5/§4.6 preserve the optimum
// exactly; §4.3 can only raise it (pairwise constraints are weaker), and the
// end-to-end ratio_factor equals delta_I/2 after §4.2.
#include "transform/transform.hpp"

#include "bench_util.hpp"

using namespace locmm;

int main() {
  {
    Table table("E6a: per-step sizes (bandwidth 12/6 instance)");
    table.columns({"stage", "V", "I", "K", "dI", "dK", "omega*"});
    const MaxMinInstance inst =
        bandwidth_instance({.num_routers = 12, .num_customers = 6}, 21);
    auto emit = [&](const std::string& name, const MaxMinInstance& cur) {
      const InstanceStats s = cur.stats();
      table.row({Table::cell(name), Table::cell(s.agents),
                 Table::cell(s.constraints), Table::cell(s.objectives),
                 Table::cell(s.delta_i), Table::cell(s.delta_k),
                 Table::cell(bench::certified_optimum(cur), 5)});
    };
    emit("input", inst);
    for (const TransformStep& step : pipeline_steps(inst)) {
      emit(step.name, step.instance);
    }
    table.note("§4.3 is the only stage allowed to change the optimum "
               "(upwards); all others preserve it exactly");
    table.print();
  }
  {
    Table table("E6b: optimum preservation per step across families");
    table.columns({"family", "opt_in", "opt_42", "opt_43", "opt_44",
                   "opt_45", "opt_46", "factor"});
    struct Family {
      std::string name;
      MaxMinInstance inst;
    };
    const std::vector<Family> families = {
        {"random", random_general({.num_agents = 18}, 22)},
        {"cycle", cycle_instance({.num_agents = 10}, 23)},
        {"path", path_instance(10)},
        {"sensor", sensor_instance({.num_sensors = 12, .num_sinks = 5}, 24)},
        {"tree", tree_instance({.max_agents = 18}, 25)},
    };
    for (const Family& f : families) {
      const Pipeline p = to_special_form(f.inst);
      std::vector<std::string> row{Table::cell(f.name),
                                   Table::cell(bench::certified_optimum(f.inst), 5)};
      for (const TransformStep& step : pipeline_steps(f.inst))
        row.push_back(Table::cell(bench::certified_optimum(step.instance), 5));
      row.push_back(Table::cell(p.ratio_factor, 2));
      table.row(std::move(row));
    }
    table.note("opt_42..opt_46 = optimum after §4.2..§4.6; factor = delta_I/2");
    table.print();
  }
  {
    Table table("E6c: pipeline blow-up factors across families");
    table.columns({"family", "V_in", "V_out", "I_in", "I_out", "nnz_in",
                   "nnz_out", "growth"});
    struct Family {
      std::string name;
      MaxMinInstance inst;
    };
    const std::vector<Family> families = {
        {"random dI=3", random_general({.num_agents = 60, .delta_i = 3}, 26)},
        {"random dI=5", random_general({.num_agents = 60, .delta_i = 5}, 27)},
        {"grid 8x8", grid_instance({.rows = 8, .cols = 8}, 28)},
        {"sensor 40/10",
         sensor_instance({.num_sensors = 40, .num_sinks = 10}, 29)},
        {"bandwidth 16/8",
         bandwidth_instance({.num_routers = 16, .num_customers = 8}, 30)},
    };
    for (const Family& f : families) {
      const InstanceStats in = f.inst.stats();
      const Pipeline p = to_special_form(f.inst);
      const InstanceStats out = p.special.stats();
      table.row({Table::cell(f.name), Table::cell(in.agents),
                 Table::cell(out.agents), Table::cell(in.constraints),
                 Table::cell(out.constraints),
                 Table::cell(in.nnz_a + in.nnz_c),
                 Table::cell(out.nnz_a + out.nnz_c),
                 Table::cell(static_cast<double>(out.nnz_a + out.nnz_c) /
                                 static_cast<double>(in.nnz_a + in.nnz_c),
                             2)});
    }
    table.note("growth = nnz_out / nnz_in: the constant-factor cost of "
               "reducing to the §5 special form");
    table.print();
  }
  return 0;
}
