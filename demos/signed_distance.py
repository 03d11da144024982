"""Signed distance fields on the pixel grid, drawn in the terminal.

The field is positive outside the object and negative inside, counts
4-connected steps to the nearest opposite-class pixel, and is never zero:
the two one-pixel layers hugging the boundary carry +1 and -1.
"""

import numpy as np

from segnoise import centered_disk, dilate_one, signed_distance


def show(field):
    for row in field.astype(int):
        print(" ".join(f"{v:+3d}" for v in row))
    print()


mask = centered_disk((11, 11), radius=3)
phi = signed_distance(mask)

print("radius-3 disk on an 11x11 grid:")
show(phi)

print("swap the classes and the field just changes sign:")
assert np.array_equal(signed_distance(~mask), -phi)
print("  signed_distance(~mask) == -signed_distance(mask)  ok\n")

grown = dilate_one(mask)
plus = signed_distance(grown)
print("grow the object by one pixel and the outside field drops by one:")
outside = phi >= 2
assert np.array_equal(plus[outside], phi[outside] - 1)
print("  phi_after == phi_before - 1 on every pixel with phi >= 2  ok")
print("  the old +1 ring is now inside:", np.unique(plus[phi == 1]))
