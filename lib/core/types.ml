(** Shared control-plane types of the bandwidth broker. *)

type flow_id = int

(** A new-flow service request, as sent by an ingress router to the broker
    (paper Section 2.2): the flow's dual-token-bucket traffic profile, its
    end-to-end delay requirement [D^{j,req}], and where it enters and leaves
    the domain. *)
type request = {
  profile : Bbr_vtrs.Traffic.t;
  dreq : float;  (** end-to-end delay requirement, seconds *)
  ingress : string;
  egress : string;
}

(** The QoS reservation the broker hands back to the ingress router for
    edge-conditioner (re)configuration: the rate–delay parameter pair
    [<r^j, d^j>].  [delay] is 0 on paths with no delay-based scheduler. *)
type reservation = { rate : float; delay : float }

type reject_reason =
  | Policy_denied of string  (** failed the policy information base *)
  | No_route  (** no ingress→egress path in the domain *)
  | Insufficient_bandwidth  (** residual bandwidth along the path too small *)
  | Delay_unachievable
      (** no rate–delay pair can meet the requested bound on this path,
          regardless of load *)
  | Not_schedulable
      (** a delay-based scheduler along the path would violate its
          schedulability condition *)
  | Server_busy of { retry_after : float }
      (** the broker's admission pipeline is overloaded and shed the
          request before deciding it; the PEP should back off (with
          jitter) for [retry_after] seconds and resubmit *)
  | Peer_unreachable of string
      (** an inter-domain transaction gave up on the named peer domain:
          every PREPARE retransmission timed out (crash, partition, or
          sustained loss), so the coordinator compensated the segments
          it had booked elsewhere and failed the request *)

type decision = Admitted of reservation | Rejected of reject_reason

(* Stable machine-readable labels for metrics and the decision log; every
   component that accounts for rejections must go through this one map. *)
let reject_label = function
  | Policy_denied _ -> "policy_denied"
  | No_route -> "no_route"
  | Insufficient_bandwidth -> "insufficient_bandwidth"
  | Delay_unachievable -> "delay_unachievable"
  | Not_schedulable -> "not_schedulable"
  | Server_busy _ -> "server_busy"
  | Peer_unreachable _ -> "peer_unreachable"

let pp_reject_reason ppf = function
  | Policy_denied rule -> Fmt.pf ppf "policy denied (rule %s)" rule
  | No_route -> Fmt.string ppf "no route"
  | Insufficient_bandwidth -> Fmt.string ppf "insufficient bandwidth"
  | Delay_unachievable -> Fmt.string ppf "delay requirement unachievable"
  | Not_schedulable -> Fmt.string ppf "not schedulable"
  | Server_busy { retry_after } ->
      Fmt.pf ppf "server busy (retry after %g s)" retry_after
  | Peer_unreachable domain -> Fmt.pf ppf "peer domain %s unreachable" domain

let pp_decision ppf = function
  | Admitted r -> Fmt.pf ppf "admitted (rate=%g delay=%g)" r.rate r.delay
  | Rejected reason -> Fmt.pf ppf "rejected: %a" pp_reject_reason reason

let is_admitted = function Admitted _ -> true | Rejected _ -> false
