let fetch_per_rule_ms = 0.012
let save_per_rule_ms = 0.038
let delete_per_rule_ms = 0.038
let rtt_ms = 0.25
let epoch_ms = 1000.0

let batch_rtt switches = rtt_ms *. float_of_int (max 0 switches)

let fetch_ms ~rules ~switches = (fetch_per_rule_ms *. float_of_int (max 0 rules)) +. batch_rtt switches

let save_ms ~installs ~removals ~switches =
  (save_per_rule_ms *. float_of_int (max 0 installs))
  +. (delete_per_rule_ms *. float_of_int (max 0 removals))
  +. batch_rtt switches

let install_miss_fraction ~installs ~switches =
  Float.min 1.0 (save_ms ~installs ~removals:0 ~switches /. epoch_ms)
