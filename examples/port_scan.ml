(* Super-spreader detection — the connection-based measurement the paper
   points at sketches for (Section 3), since TCAM counters can only sum
   volumes.  A sketch of distinct-counting cells watches (source,
   destination) pairs; a port-scanning worm that contacts hundreds of
   hosts stands out however little traffic it sends.

   Run with:  dune exec examples/port_scan.exe *)

module Rng = Dream_util.Rng
module Super_spreader = Dream_sketch.Super_spreader

let () =
  let rng = Rng.create 4242 in
  let sketch = Super_spreader.create ~cells:2048 ~threshold:40 ~seed:7 in
  for epoch = 0 to 9 do
    Super_spreader.begin_epoch sketch;
    (* Normal clients: 200 sources each talking to a handful of services. *)
    for src = 1 to 200 do
      for _ = 1 to 2 + Rng.int rng 4 do
        Super_spreader.observe sketch ~src ~dst:(Rng.int rng 50)
      done
    done;
    (* From epoch 4, an infected host starts scanning the /24. *)
    if epoch >= 4 then begin
      let scanner = 6666 in
      for dst = 0 to 150 + Rng.int rng 100 do
        Super_spreader.observe sketch ~src:scanner ~dst:(0x0A000000 + dst)
      done
    end;
    let detections = Super_spreader.detected sketch in
    Printf.printf "epoch %d: %d super-spreader(s)" epoch (List.length detections);
    List.iter (fun (src, fanout) -> Printf.printf "  [src %d: ~%.0f destinations]" src fanout)
      detections;
    Printf.printf "  (estimated precision %.2f)\n"
      (Super_spreader.estimate_precision sketch)
  done;
  print_newline ();
  print_endline "The scanner surfaces the epoch it starts sweeping, while 200 normal";
  print_endline "clients with small fan-outs stay below the threshold."
