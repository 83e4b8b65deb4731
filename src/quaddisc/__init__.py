"""quaddisc: discriminators of integer quadratic sequences versus primes in progressions.

Each public name is imported from the module that defines it, such as
`quaddisc.discriminator` or `quaddisc.verifier`: `import quaddisc` loads none."""

__version__ = "0.1.0"
