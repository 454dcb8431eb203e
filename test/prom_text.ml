(* Reading a registry back through its Prometheus text exposition, the
   one form the program exports it in. *)

(* The value on the line of [series] (its name and labels as the
   exposition spells them, e.g. [dream_phase_ms_count{phase="fetch"}]). *)
let value registry series =
  let prefix = series ^ " " in
  match
    List.find_opt (String.starts_with ~prefix)
      (String.split_on_char '\n' (Dream_obs.Registry.to_prometheus registry))
  with
  | Some line ->
    float_of_string (String.sub line (String.length prefix) (String.length line - String.length prefix))
  | None -> Alcotest.failf "no %s series in the exposition" series
