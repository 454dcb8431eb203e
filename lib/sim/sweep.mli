(** One experiment run many times while one parameter varies, printed as
    the paper's satisfaction tables (Figs 6–16 and the ablation).

    A figure describes its labelled cells and the tables that show them;
    {!run} runs every cell once and prints every table from the same
    results, so a figure pair such as Figs 6/7 costs one set of runs. *)

type cell = {
  key : string;  (** the name the figure's metrics group this cell under *)
  group : string;  (** the table section its row prints in *)
  labels : string list;  (** its row's axis values *)
  scenario : Dream_workload.Scenario.t;
  config : Dream_core.Config.t;
  strategy : Dream_alloc.Allocator.strategy;
}

val cell :
  ?group:string ->
  ?config:Dream_core.Config.t ->
  key:string ->
  string list ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  cell
(** [group] defaults to [""], [config] to {!Dream_core.Config.default}. *)

val versus :
  ?group:string ->
  ?config:Dream_core.Config.t ->
  ?suffix:string ->
  string ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  cell
(** [versus x scenario strategy] is the {!cell} of row [x; name], keyed by
    [name]: the strategy's name with [suffix] (default [""]) appended. *)

type column =
  | Mean  (** mean satisfaction *)
  | P5  (** 5th-percentile satisfaction *)
  | Reject  (** rejection ratio *)
  | Drop  (** drop ratio *)

type section = {
  group : string;  (** prints the cells of this group, in cell order *)
  subheading : string option;
  axes : string list;  (** the axis column names *)
}

type table = { heading : string; sections : section list; columns : column list }

val table : ?group:string -> string -> axes:string list -> column list -> table
(** A table of one section without a subheading over the cells of
    [group] (default [""]). *)

val run : tables:table list -> cell list -> (cell * Experiment.result) list
(** Run each cell once, in order, through {!Experiment.run}, then print
    every table from those results. *)

val metrics : (cell * Experiment.result) list -> Dream_obs.Bench_snapshot.metric list
(** Per [key], in key order, the mean over its cells of the mean and 5th
    percentile satisfaction, rejection and drop, named
    ["<key>:mean_satisfaction"] and so on. *)
