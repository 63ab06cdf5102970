(** Policy information base (paper Figure 1).

    Before any resource test, the broker checks an incoming service request
    against an ordered list of administrative rules.  A rule matches on
    request attributes and either allows or denies; the first matching rule
    wins, and an overridable default applies when none match. *)

type action = Allow | Deny

type t

val create : ?default:action -> unit -> t
(** [default] is [Allow]. *)

val add_ingress_rule : t -> name:string -> ingress:string -> action -> unit
(** Convenience: match on the ingress router. *)

val add_peak_limit : t -> name:string -> max_peak:float -> unit
(** Convenience: deny any request whose profile peak rate exceeds
    [max_peak]. *)

val add_delay_floor : t -> name:string -> min_dreq:float -> unit
(** Convenience: deny requests asking for an end-to-end bound below
    [min_dreq] (e.g. bounds the provider never sells). *)

val add_priority_rule :
  t -> name:string -> matches:(Types.request -> bool) -> priority:int -> unit
(** Classification rule for overload shedding: requests matching [matches]
    get importance [priority] (higher = more important; shed last).  Like
    allow/deny rules, the first matching priority rule wins. *)

val priority : t -> Types.request -> int
(** Importance of a request under the priority rules; [0] when none
    match. *)

val check : t -> Types.request -> (unit, string) result
(** [Error rule_name] when denied. *)

val rule_count : t -> int
