(** Dynamic packet state carried in packet headers (paper Section 2.1).

    Under the VTRS, a packet carries (i) the rate–delay parameter pair
    [<r, d>] of its flow, (ii) its current virtual time stamp [omega] and
    (iii) a virtual time adjustment term [delta].  Core routers reference
    and update this state; they keep no per-flow state of their own.

    This implementation uses the {e max-packet-size deadline} instantiation
    of the VTRS (see DESIGN.md): packets of a flow [j] at a rate-based hop
    carry the constant per-hop virtual delay [lmax_j / r_j] rather than the
    per-packet [L^{j,k} / r_j].  With constant per-hop virtual delays the
    virtual spacing property is preserved hop by hop with [delta = 0], and
    the resulting end-to-end bound is exactly eq. (2) of the paper (which is
    itself stated in terms of [L^{j,max}]). *)

type t = {
  rate : float;  (** reserved rate [r^j] of the flow, bits/s *)
  delay : float;  (** delay parameter [d^j], seconds (delay-based hops) *)
  lmax : float;  (** the flow's maximum packet size [L^{j,max}], bits *)
  omega : float;  (** virtual time stamp at the current hop, seconds *)
  delta : float;  (** virtual time adjustment term (0 in this instantiation) *)
}

val init : rate:float -> delay:float -> lmax:float -> edge_departure:float -> t
(** State stamped by the edge conditioner: [omega] is initialised to the
    time the packet leaves the edge conditioner and enters the first core
    hop ([omega = a_hat_1]). *)

val virtual_finish : t -> Topology.sched_class -> float
(** Virtual finish time [nu~ = omega + d~] at the current hop — the quantity
    core-stateless schedulers use as the service priority.  The per-hop
    virtual delay [d~] is [lmax/rate + delta] at a rate-based hop and
    [delay] at a delay-based hop. *)

val advance : t -> link:Topology.link -> t
(** Concatenation rule, paper eq. (1): the state the packet carries into the
    next hop after crossing [link]:
    [omega' = omega + d~ + psi + pi]. *)
