"""Unit constants.

The simulator keeps everything in SI base units internally (bytes, seconds,
hertz, operations) and converts only at the reporting edge. These constants
make call sites read like the paper's tables: ``128 * MIB``, ``1.05 * GHZ``,
``614 * GIGA`` bytes/s.
"""

# Decimal (SI) multipliers -- used for rates: FLOP/s, bytes/s, Hz.
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12
PETA = 1e15

# Sub-unit multipliers.
MILLI = 1e-3
MICRO = 1e-6
NANO = 1e-9
PICO = 1e-12

# Binary multipliers -- used for capacities: SRAM, HBM sizes.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# Frequency aliases.
MHZ = MEGA
GHZ = GIGA
