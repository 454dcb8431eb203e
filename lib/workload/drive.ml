module Controller = Dream_core.Controller
module Journal = Dream_recovery.Journal

type t = {
  journal : Journal.sink option;
  mutable controller : Controller.t;
  mutable pending : Arrival.submission list; (* sorted by arrival epoch *)
  mutable pool : Arrival.submission list Lazy.t;
  mutable storm_submissions : int;
  mutable last_checkpoint : string option;
}

let storm_pool (s : Scenario.t) =
  Arrival.schedule
    {
      s with
      Scenario.seed = s.Scenario.seed + 7919;
      num_tasks = max 8 (s.Scenario.num_tasks / 2);
      mean_duration = max 5 (s.Scenario.mean_duration / 4);
    }

let create ?journal ~config ~strategy (scenario : Scenario.t) =
  let controller =
    Controller.create ~config ~strategy ~num_switches:scenario.Scenario.num_switches
      ~capacity:scenario.Scenario.capacity
  in
  Controller.set_journal controller journal;
  {
    journal;
    controller;
    pending = Arrival.schedule scenario;
    pool = lazy (storm_pool scenario);
    storm_submissions = 0;
    last_checkpoint = None;
  }

let controller t = t.controller

let storm_submissions t = t.storm_submissions

let submit t (s : Arrival.submission) =
  ignore
    (Controller.submit t.controller ~spec:s.Arrival.spec ~topology:s.Arrival.topology
       ~source:(Dream_traffic.Source.of_generator s.Arrival.generator)
       ~duration:s.Arrival.duration)

let rec feed_storm t n =
  if n > 0 then
    match Lazy.force t.pool with
    | [] -> ()
    | s :: rest ->
      t.pool <- Lazy.from_val rest;
      t.storm_submissions <- t.storm_submissions + 1;
      submit t s;
      feed_storm t (n - 1)

let rec pop_arrivals t epoch =
  match t.pending with
  | s :: rest when s.Arrival.arrival <= epoch ->
    t.pending <- rest;
    submit t s;
    pop_arrivals t epoch
  | _ -> ()

let arrive t =
  feed_storm t (Controller.storm_tasks_pending t.controller);
  pop_arrivals t (Controller.epoch t.controller)

let tick t = Controller.tick t.controller

let step t =
  arrive t;
  tick t

let checkpoint t = t.last_checkpoint <- Some (Controller.checkpoint t.controller)

let fail_over t =
  match (t.journal, t.last_checkpoint) with
  | None, _ -> Error "fail-over needs a journal"
  | _, None -> Error "fail-over needs a checkpoint"
  | Some sink, Some snapshot ->
    let env = Controller.environment t.controller in
    let at_epoch = Controller.epoch t.controller in
    Result.map
      (fun successor ->
        Controller.set_journal successor (Some sink);
        t.controller <- successor;
        checkpoint t)
      (Controller.recover ~env ~snapshot ~journal:(Journal.entries sink) ~at_epoch)

let finish t =
  Controller.finalize t.controller;
  t.controller
