"""Digital-twin key-state replication over an authenticated slotted link.

A physical twin executes a finite state machine; a digital twin mirrors its
key states through verified delta records.  The package simulates the pair,
the network between them, a channel-controlling adversary, and a rule-based
detector that attributes every anomaly to the security requirement whose
enforcement caught it.
"""
