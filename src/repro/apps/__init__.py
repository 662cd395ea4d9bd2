"""Applications under test: the two DeathStarBench suites the paper deploys.

* :class:`HotelReservation` — the Go/gRPC hotel application (search,
  recommendation, reservation, user/profile services over MongoDB and
  Memcached backends).
* :class:`SocialNetwork` — the 28-microservice social network (compose
  post, home/user timelines over MongoDB, Redis and Memcached).

:data:`APP_CLASSES` is the one name → class table problems, pools and the
scenario generator resolve applications through.
"""

from repro.apps.base import App
from repro.apps.hotel_reservation import HotelReservation
from repro.apps.social_network import SocialNetwork


# Second-tenant clones.  CloudEnvironment requires hosted apps to live in
# distinct namespaces, and only two stock applications exist — these
# module-level subclasses (module-level so problems hosting them stay
# picklable for snapshot/fork grids) let one environment host a third
# tenant: a second copy of a stock app under its own namespace and helm
# release.

class HotelReservationTenantB(HotelReservation):
    """A second HotelReservation tenant (own namespace/release)."""

    name = "hotel-reservation-b"
    namespace = "test-hotel-reservation-b"


class SocialNetworkTenantB(SocialNetwork):
    """A second SocialNetwork tenant (own namespace/release)."""

    name = "social-network-b"
    namespace = "test-social-network-b"


#: class name -> class, for every app an environment may host
APP_CLASSES: dict[str, type[App]] = {
    cls.__name__: cls for cls in (HotelReservation, SocialNetwork,
                                  HotelReservationTenantB,
                                  SocialNetworkTenantB)
}

__all__ = ["APP_CLASSES", "App", "HotelReservation", "SocialNetwork"]
