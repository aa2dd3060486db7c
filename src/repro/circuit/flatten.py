"""Expansion of a gate-level circuit into a transistor-level netlist.

The reference ("SPICE") leakage analysis of a circuit needs every transistor
of every gate in one :class:`~repro.spice.netlist.TransistorNetlist`, with

* primary-input nets fixed at the rail implied by the applied input vector,
* every other net free (solved), seeded with the rail implied by its logic
  value so the DC solver starts near the answer.

A circuit flattens to *one* transistor topology: different input vectors only
change the fixed primary-input rails and the free-node seeds.
:func:`flatten_batch` exploits that — it builds the shared netlist once and
derives per-vector fixed-voltage and seed *arrays*, which is exactly the
same-topology contract :class:`~repro.spice.batched.BatchedDcSolver` solves
in one vectorized pass.

Keeping the expansion separate from the solver lets tests inspect the
flattened structure (transistor counts, node sharing) independently of any
numerical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.logic import propagate
from repro.circuit.netlist import Circuit
from repro.device.params import TechnologyParams
from repro.gates.templates import build_gate_transistors, internal_seed_levels
from repro.spice.netlist import SUPPLY, Node, NodeKind, TransistorNetlist


@dataclass
class FlattenedCircuit:
    """A circuit flattened to transistors for one input assignment.

    Attributes
    ----------
    circuit:
        The source gate-level circuit.
    netlist:
        The transistor-level netlist (shares net names with the circuit).
    net_values:
        Logic value of every net under the applied input assignment.
    input_assignment:
        The primary-input assignment used for the expansion.
    internal_nodes:
        Per gate, the instance-internal node names (stack nodes, internal
        stages) created by its transistor template.
    """

    circuit: Circuit
    netlist: TransistorNetlist
    net_values: dict[str, int]
    input_assignment: dict[str, int]
    internal_nodes: dict[str, list[str]]

    @property
    def transistor_count(self) -> int:
        """Return the number of transistor instances."""
        return len(self.netlist.transistors)

    def initial_voltages(self) -> dict[str, float]:
        """Return rail-based initial guesses for every free node.

        Each free node starts at ``vdd`` times its :meth:`seed_levels`
        entry.
        """
        vdd = self.netlist.vdd
        return {node: vdd * level for node, level in self.seed_levels().items()}

    def seed_levels(self) -> dict[str, int]:
        """Return the logic level (0/1) every free node is seeded at.

        Circuit nets start at the rail implied by their logic value.  Gate
        internal nodes start at the rail their template actually settles
        them at (:func:`~repro.gates.templates.internal_seed_levels`): a
        series-stack node follows whichever end it conducts to, and the
        internal stage of a two-stage gate (BUF, AND*, OR*) sits at the
        *complement* of the output.  Seeding every internal node at the
        output rail — the old behaviour — leaves wrong-rail stage nodes
        with mA-scale residuals that the damped Newton solver grinds on
        for dozens of iterations at large circuit sizes.
        """
        levels = {
            net: value
            for net, value in self.net_values.items()
            if not self.circuit.is_primary_input(net)
        }
        for gate_name, nodes in self.internal_nodes.items():
            gate = self.circuit.gates[gate_name]
            gate_levels = internal_seed_levels(
                gate.gate_type,
                [self.net_values[net] for net in gate.inputs],
                self.net_values[gate.output],
            )
            prefix = len(gate_name) + 1
            for node in nodes:
                # A KeyError here means the template created a node its
                # seed table does not know — fail loudly, not silently.
                levels[node] = gate_levels[node[prefix:]]
        return levels

    def supply_views(self, vdd: Sequence[float]) -> list[TransistorNetlist]:
        """Return one view of the netlist per supply voltage in ``vdd``.

        View ``b`` carries the rails :func:`flatten` fixes at a technology
        whose supply is ``vdd[b]`` (the supply node, and every primary
        input at ``vdd[b]`` times its logic value) as fresh nodes.  Every
        other node object, and the transistor list, is shared with this
        netlist — so the device parameters of the views are the flattened
        ones; a batched solve over varied devices passes them separately
        (:class:`~repro.device.batched.DeviceColumns`).
        """
        pi_values = {
            net: self.net_values[net] for net in self.circuit.primary_inputs
        }
        views: list[TransistorNetlist] = []
        for supply in vdd:
            view = TransistorNetlist(vdd=float(supply))
            nodes = dict(self.netlist.nodes)
            nodes[SUPPLY] = view.nodes[SUPPLY]
            for net, value in pi_values.items():
                nodes[net] = Node(net, NodeKind.FIXED, view.vdd * value)
            view.nodes = nodes
            view.transistors = self.netlist.transistors
            views.append(view)
        return views


def _build_netlist(
    circuit: Circuit,
    technology: TechnologyParams,
    pi_voltages: dict[str, float],
) -> tuple[TransistorNetlist, dict[str, list[str]]]:
    """Expand ``circuit`` into transistors with the given primary-input rails."""
    netlist = TransistorNetlist(vdd=technology.vdd)
    for net in circuit.primary_inputs:
        netlist.add_node(net, fixed_voltage=pi_voltages[net])

    internal_nodes: dict[str, list[str]] = {}
    for gate in circuit.gates.values():
        pins = {pin: net for pin, net in zip(gate.spec.inputs, gate.inputs)}
        pins[gate.spec.output] = gate.output
        internal_nodes[gate.name] = build_gate_transistors(
            netlist, technology, gate.gate_type, gate.name, pins, owner=gate.name
        )
    return netlist, internal_nodes


def flatten(
    circuit: Circuit,
    technology: TechnologyParams,
    input_assignment: dict[str, int],
) -> FlattenedCircuit:
    """Flatten ``circuit`` under ``input_assignment`` into transistors.

    The circuit is validated first; logic values are propagated to seed the
    free nets and to fix the primary inputs at their rails.
    """
    circuit.validate()
    net_values = propagate(circuit, input_assignment)
    netlist, internal_nodes = _build_netlist(
        circuit,
        technology,
        {net: technology.vdd * net_values[net] for net in circuit.primary_inputs},
    )
    return FlattenedCircuit(
        circuit=circuit,
        netlist=netlist,
        net_values=net_values,
        input_assignment=dict(input_assignment),
        internal_nodes=internal_nodes,
    )


@dataclass
class BatchedFlattenedCircuit:
    """A circuit flattened once, instantiated for ``B`` input assignments.

    The transistor topology of a circuit does not depend on the applied
    vector, so a batch shares one :class:`TransistorNetlist` (one set of
    transistor instances and :class:`~repro.device.mosfet.Mosfet` objects);
    only the fixed primary-input rails and the free-node seeds vary, and they
    are carried as ``(B,)`` arrays.

    Attributes
    ----------
    circuit:
        The source gate-level circuit.
    netlist:
        The shared transistor-level netlist (primary inputs fixed at the
        rails of the *first* assignment; per-vector rails live in
        ``fixed_voltages``).
    assignments:
        The primary-input assignments, in batch order.
    net_values:
        Per assignment, the logic value of every net.
    internal_nodes:
        Per gate, the instance-internal node names of its template.
    fixed_voltages:
        Per primary-input net, the ``(B,)`` rail voltages implied by the
        assignments.
    """

    circuit: Circuit
    netlist: TransistorNetlist
    assignments: list[dict[str, int]]
    net_values: list[dict[str, int]]
    internal_nodes: dict[str, list[str]]
    fixed_voltages: dict[str, np.ndarray]

    @property
    def batch(self) -> int:
        """Return the number of batch instances (input assignments)."""
        return len(self.assignments)

    @property
    def transistor_count(self) -> int:
        """Return the number of transistor instances of the shared topology."""
        return len(self.netlist.transistors)

    def initial_voltages(self) -> dict[str, np.ndarray]:
        """Return per-vector rail-based initial guesses as ``(B,)`` arrays.

        Column ``b`` equals what :meth:`FlattenedCircuit.initial_voltages`
        returns for ``assignments[b]``, so the batched solve starts every
        instance exactly where the scalar reference solve would.
        """
        vdd = self.netlist.vdd
        guesses: dict[str, np.ndarray] = {}
        for net in self.net_values[0]:
            if self.circuit.is_primary_input(net):
                continue
            guesses[net] = vdd * np.array(
                [values[net] for values in self.net_values], dtype=float
            )
        for gate_name, nodes in self.internal_nodes.items():
            gate = self.circuit.gates[gate_name]
            per_vector = [
                internal_seed_levels(
                    gate.gate_type,
                    [values[net] for net in gate.inputs],
                    values[gate.output],
                )
                for values in self.net_values
            ]
            prefix = len(gate_name) + 1
            for node in nodes:
                label = node[prefix:]
                guesses[node] = vdd * np.array(
                    [levels[label] for levels in per_vector], dtype=float
                )
        return guesses

    def netlist_views(self) -> list[TransistorNetlist]:
        """Return ``B`` per-vector views of the shared netlist.

        Each view owns fresh :class:`Node` objects (so its primary-input
        rails can differ) but shares the transistor instance list — and
        therefore the device models — with every other view, which is what
        lets :class:`~repro.spice.batched.BatchedDcSolver` pack the device
        parameters once instead of ``B`` times.
        """
        views: list[TransistorNetlist] = []
        for b in range(self.batch):
            view = TransistorNetlist(vdd=self.netlist.vdd)
            view.nodes = {
                name: Node(
                    name=name,
                    kind=node.kind,
                    voltage=(
                        float(self.fixed_voltages[name][b])
                        if name in self.fixed_voltages
                        else node.voltage
                    ),
                )
                for name, node in self.netlist.nodes.items()
            }
            view.transistors = self.netlist.transistors
            views.append(view)
        return views


def flatten_batch(
    circuit: Circuit,
    technology: TechnologyParams,
    assignments: list[dict[str, int]],
) -> BatchedFlattenedCircuit:
    """Flatten ``circuit`` once for a whole batch of input assignments.

    The shared topology is built a single time; per-assignment logic values
    are propagated to derive the fixed-voltage and seed arrays.  Each column
    of the result is equivalent to ``flatten(circuit, technology,
    assignments[b])``, without rebuilding transistors per vector.
    """
    if not assignments:
        raise ValueError("flatten_batch needs at least one input assignment")
    circuit.validate()
    net_values = [propagate(circuit, assignment) for assignment in assignments]
    netlist, internal_nodes = _build_netlist(
        circuit,
        technology,
        {net: technology.vdd * net_values[0][net] for net in circuit.primary_inputs},
    )
    fixed_voltages = {
        net: technology.vdd
        * np.array([values[net] for values in net_values], dtype=float)
        for net in circuit.primary_inputs
    }
    return BatchedFlattenedCircuit(
        circuit=circuit,
        netlist=netlist,
        assignments=[dict(assignment) for assignment in assignments],
        net_values=net_values,
        internal_nodes=internal_nodes,
        fixed_voltages=fixed_voltages,
    )
