type action = Allow | Deny

type rule = { name : string; matches : Types.request -> bool; action : action }

type priority_rule = { pname : string; pmatches : Types.request -> bool; level : int }

(* Both lists are kept in evaluation order (rules are added rarely and
   checked on every request), and the checks below are top-level
   recursions, so a check allocates nothing. *)
type t = {
  default : action;
  mutable rules : rule list;
  mutable priorities : priority_rule list;
}

let create ?(default = Allow) () = { default; rules = []; priorities = [] }

let add_rule t ~name ~matches action = t.rules <- t.rules @ [ { name; matches; action } ]

let add_ingress_rule t ~name ~ingress action =
  add_rule t ~name ~matches:(fun req -> req.Types.ingress = ingress) action

let add_peak_limit t ~name ~max_peak =
  add_rule t ~name
    ~matches:(fun req -> req.Types.profile.Bbr_vtrs.Traffic.peak > max_peak)
    Deny

let add_delay_floor t ~name ~min_dreq =
  add_rule t ~name ~matches:(fun req -> req.Types.dreq < min_dreq) Deny

let add_priority_rule t ~name ~matches ~priority =
  t.priorities <- t.priorities @ [ { pname = name; pmatches = matches; level = priority } ]

let rec first_priority req = function
  | [] -> 0
  | pr :: rest -> if pr.pmatches req then pr.level else first_priority req rest

let priority t req = first_priority req t.priorities

let rec first_verdict default req = function
  | [] -> ( match default with Allow -> Ok () | Deny -> Error "default")
  | rule :: rest ->
      if rule.matches req then
        match rule.action with Allow -> Ok () | Deny -> Error rule.name
      else first_verdict default req rest

let check t req = first_verdict t.default req t.rules

let rule_count t = List.length t.rules
