(* dream-bench: compare and trend BENCH_<figure>.json benchmark snapshots.

     dream-bench diff BASE NEW [--figures ID,...] [--format text|json]
     dream-bench trend DIR...

   [diff] compares a baseline snapshot (file or directory of snapshots)
   against a freshly generated one.  Every gated metric must equal its
   baseline.  With [--figures], exactly the named figures are gated,
   and each must be in both BASE and NEW; the others are ignored.  Exit
   codes are the CI perf gate's contract: 0 clean, 1 at least one gated
   metric moved (either way) or is missing, 124 bad input (unreadable
   snapshot, figure/scale mismatch, missing counterpart).

   [trend] folds an ordered series of snapshot directories (or files)
   into per-metric trajectories for the nightly trend job. *)

module Snapshot = Dream_obs.Bench_snapshot
module Diff = Dream_obs.Bench_diff
module Json = Dream_obs.Json

let ( let* ) = Result.bind

(* A path argument is either one snapshot file or a directory holding
   BENCH_*.json files; directories expand in filename order so pairing
   and series order are deterministic. *)
let snapshot_paths path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file or directory" path)
  else if Sys.is_directory path then begin
    let entries =
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    in
    match entries with
    | [] -> Error (Printf.sprintf "%s: no BENCH_*.json snapshots" path)
    | _ :: _ -> Ok entries
  end
  else Ok [ path ]

let load_all paths =
  List.fold_left
    (fun acc p ->
      let* acc = acc in
      let* snap = Snapshot.read p in
      Ok (snap :: acc))
    (Ok []) paths
  |> Result.map List.rev

let load_path path =
  let* paths = snapshot_paths path in
  load_all paths

(* Pair base and new snapshots by figure id.  Every base figure must have
   a counterpart — the baseline is the coverage contract — while figures
   only the new set carries are reported but never gate. *)
let pair_by_figure bases currents =
  let find fig = List.find_opt (fun s -> s.Snapshot.figure = fig) currents in
  List.fold_left
    (fun acc base ->
      let* acc = acc in
      match find base.Snapshot.figure with
      | Some current -> Ok ((base, current) :: acc)
      | None ->
        Error (Printf.sprintf "no snapshot for baseline figure %S in NEW" base.Snapshot.figure))
    (Ok []) bases
  |> Result.map List.rev

(* The snapshots of the named figures, in name order; every name must
   have one. *)
let select ids snaps side =
  List.fold_left
    (fun acc id ->
      let* acc = acc in
      match List.find_opt (fun s -> s.Snapshot.figure = id) snaps with
      | Some s -> Ok (s :: acc)
      | None -> Error (Printf.sprintf "no snapshot for figure %S in %s" id side))
    (Ok []) (List.sort_uniq compare ids)
  |> Result.map List.rev

let diff_cmd base_path new_path figures format =
  let* bases = load_path base_path in
  let* currents = load_path new_path in
  let* bases, currents =
    match figures with
    | None -> Ok (bases, currents)
    | Some ids ->
      let* bases = select ids bases "BASE" in
      let* currents = select ids currents "NEW" in
      Ok (bases, currents)
  in
  let* pairs = pair_by_figure bases currents in
  let* reports =
    List.fold_left
      (fun acc (base, current) ->
        let* acc = acc in
        let* report = Diff.diff ~base current in
        Ok (report :: acc))
      (Ok []) pairs
    |> Result.map List.rev
  in
  let extra =
    List.filter
      (fun s -> not (List.exists (fun b -> b.Snapshot.figure = s.Snapshot.figure) bases))
      currents
  in
  (match format with
  | `Text ->
    List.iter (fun r -> Format.printf "%a" Diff.pp_report r) reports;
    List.iter
      (fun s -> Format.printf "note: figure %s has no baseline (not gated)@." s.Snapshot.figure)
      extra;
    let total = Diff.failures reports in
    if total = 0 then Format.printf "perf gate: clean (%d figure(s))@." (List.length reports)
    else Format.printf "perf gate: %d failure(s)@." total
  | `Json ->
    print_endline (Json.to_string (Json.List (List.map Diff.report_to_json reports))));
  if Diff.failures reports > 0 then exit 1;
  Ok ()

let trend_cmd dirs =
  let* series =
    List.fold_left
      (fun acc dir ->
        let* acc = acc in
        let* snaps = load_path dir in
        let label = Filename.basename (Filename.remove_extension dir) in
        Ok (List.rev_append (List.rev_map (fun s -> (label, s)) snaps) acc))
      (Ok []) dirs
    |> Result.map List.rev
  in
  Format.printf "%a" Diff.pp_trend (Diff.trend series);
  Ok ()

open Cmdliner

let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let base_path =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASE" ~doc:"Baseline snapshot file or directory of BENCH_*.json files.")

let new_path =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW" ~doc:"Freshly generated snapshot file or directory.")

let figures =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "figures" ] ~docv:"ID,..."
        ~doc:
          "Gate exactly these figures, each of which must be in both BASE and NEW; the other \
           snapshots are ignored.")

let trend_dirs =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"DIR" ~doc:"Snapshot directories (or files) in series order.")

let diff_term =
  Term.term_result' ~usage:false Term.(const diff_cmd $ base_path $ new_path $ figures $ format)

let trend_term = Term.term_result' ~usage:false Term.(const trend_cmd $ trend_dirs)

let cmd =
  let doc = "compare and trend DREAM benchmark snapshots" in
  Cmd.group (Cmd.info "dream-bench" ~doc)
    [
      Cmd.v
        (Cmd.info "diff"
           ~doc:
             "Compare BASE against NEW; exit 1 when a gated metric moved either way or is missing, \
              124 on bad input.")
        diff_term;
      Cmd.v (Cmd.info "trend" ~doc:"Summarize per-metric trajectories across a snapshot series.")
        trend_term;
    ]

let () = exit (Cmd.eval cmd)
