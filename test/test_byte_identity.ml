(* Golden byte-identity regression: seeded quick runs of the three figures
   that exercise the counter store from three angles (fig2: estimator
   recall, fig4: allocation policy, fig17: the full controller loop under
   the delay model) must reproduce every gated metric of the committed
   bench/baseline/BENCH_<figure>.json bit for bit.  Metrics with direction
   [info] are measured wall-clock time and only have to be present and
   finite. *)

module Fig02 = Dream_sim.Fig02
module Fig04 = Dream_sim.Fig04
module Fig17 = Dream_sim.Fig17
module Snapshot = Dream_obs.Bench_snapshot

(* dune runs tests from _build/default/test; a manual `./test_….exe` from
   the repo root also works thanks to the fallback path. *)
let baseline figure =
  let file = "BENCH_" ^ figure ^ ".json" in
  let in_build = Filename.concat "../bench/baseline" file in
  let path =
    if Sys.file_exists in_build then in_build else Filename.concat "bench/baseline" file
  in
  match Snapshot.read path with
  | Ok snapshot -> snapshot
  | Error e -> Alcotest.failf "baseline: %s" e

let metric_fingerprint (m : Snapshot.metric) =
  Printf.sprintf "%s|%s|%Lx|%s" m.Snapshot.m_name m.Snapshot.m_unit
    (Int64.bits_of_float m.Snapshot.m_value)
    (Snapshot.direction_to_string m.Snapshot.m_direction)

let matches_baseline figure (run : quick:bool -> Snapshot.metric list) () =
  let expected = (baseline figure).Snapshot.metrics in
  let actual = run ~quick:true in
  let names ms = List.map (fun m -> m.Snapshot.m_name) ms in
  Alcotest.(check (list string)) (figure ^ ": same metrics") (names expected) (names actual);
  let deterministic = ref 0 in
  List.iter2
    (fun e a ->
      match e.Snapshot.m_direction with
      | Snapshot.Info ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s finite" figure a.Snapshot.m_name)
          true
          (Float.is_finite a.Snapshot.m_value)
      | Snapshot.Lower_better | Snapshot.Higher_better ->
        incr deterministic;
        Alcotest.(check string)
          (Printf.sprintf "%s: %s bit-identical" figure e.Snapshot.m_name)
          (metric_fingerprint e) (metric_fingerprint a))
    expected actual;
  (* A baseline with only info rows would make the check vacuous. *)
  Alcotest.(check bool) (figure ^ ": has deterministic metrics") true (!deterministic > 0)

let () =
  Alcotest.run "dream.byte_identity"
    [
      ( "baseline",
        [
          Alcotest.test_case "fig2 matches BENCH_fig2.json" `Slow
            (matches_baseline "fig2" Fig02.run);
          Alcotest.test_case "fig4 matches BENCH_fig4.json" `Slow
            (matches_baseline "fig4" Fig04.run);
          Alcotest.test_case "fig17 matches BENCH_fig17.json" `Slow
            (matches_baseline "fig17" Fig17.run);
        ] );
    ]
